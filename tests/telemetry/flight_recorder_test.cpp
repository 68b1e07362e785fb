// FlightRecorder / Tape semantics: slab-backed rings, wrap-around keeping
// the newest events, and the phase marks a flow's tap puts on its tape.
#include "telemetry/flight_recorder.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/time.h"
#include "telemetry/hub.h"

namespace halfback::telemetry {
namespace {

sim::Time us(std::int64_t n) { return sim::Time::microseconds(n); }

TEST(FlightRecorder, TapeCreatedOnFirstUseAndFound) {
  FlightRecorder recorder;
  EXPECT_EQ(recorder.find(TrackKind::flow, 7), nullptr);
  Tape& tape = recorder.tape(TrackKind::flow, 7, "flow 7");
  EXPECT_EQ(recorder.find(TrackKind::flow, 7), &tape);
  EXPECT_EQ(recorder.tape_count(), 1u);
  EXPECT_EQ(tape.label(), "flow 7");
  EXPECT_EQ(tape.track(), TrackKind::flow);
  EXPECT_EQ(tape.id(), 7u);
  // Same id under a different track is a different tape.
  Tape& link = recorder.tape(TrackKind::link, 7, "link 7");
  EXPECT_NE(&link, &tape);
  EXPECT_EQ(recorder.tape_count(), 2u);
}

TEST(FlightRecorder, LabelAppliesOnlyAtCreation) {
  FlightRecorder recorder;
  recorder.tape(TrackKind::flow, 1, "original");
  Tape& again = recorder.tape(TrackKind::flow, 1, "ignored");
  EXPECT_EQ(again.label(), "original");
}

TEST(FlightRecorder, EventsReadBackOldestFirst) {
  FlightRecorder recorder;
  Tape& tape = recorder.tape(TrackKind::flow, 1);
  tape.record(us(10), TapeEventKind::flow_start);
  tape.record(us(20), TapeEventKind::segment_sent, 1);
  tape.record(us(30), TapeEventKind::segment_sent, 2);
  ASSERT_EQ(tape.size(), 3u);
  EXPECT_EQ(tape.dropped(), 0u);
  EXPECT_EQ(tape.event(0).kind, TapeEventKind::flow_start);
  EXPECT_EQ(tape.event(1).a, 1u);
  EXPECT_EQ(tape.event(2).a, 2u);
  EXPECT_EQ(tape.event(2).at, us(30));
}

TEST(FlightRecorder, RingWrapKeepsNewestAndCountsDropped) {
  FlightRecorder recorder{FlightRecorder::Config{.events_per_tape = 4}};
  Tape& tape = recorder.tape(TrackKind::flow, 1);
  for (std::uint32_t i = 0; i < 10; ++i) {
    tape.record(us(i), TapeEventKind::segment_sent, i);
  }
  EXPECT_EQ(tape.size(), 4u);
  EXPECT_EQ(tape.dropped(), 6u);
  // Survivors are the newest four, oldest first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(tape.event(i).a, 6u + i);
  }
}

/// The phase codes a flow's tape holds, oldest first.
std::vector<std::uint32_t> phase_marks(const Tape& tape) {
  std::vector<std::uint32_t> marks;
  for (std::size_t i = 0; i < tape.size(); ++i) {
    if (tape.event(i).kind == TapeEventKind::phase_enter) {
      marks.push_back(tape.event(i).a);
    }
  }
  return marks;
}

std::uint32_t code(SpanKind kind) { return static_cast<std::uint32_t>(kind); }

TEST(FlightRecorder, ConsecutiveDuplicatePhasesCollapse) {
  Hub hub;
  FlowTap tap = hub.flow_tap(1, "halfback");
  tap.start(us(0), 1000);  // enters the handshake
  tap.enter_phase(us(5), SpanKind::pacing);
  tap.enter_phase(us(9), SpanKind::pacing);  // duplicate: no second mark
  const Tape& tape = *hub.recorder().find(TrackKind::flow, 1);
  EXPECT_EQ(phase_marks(tape), (std::vector<std::uint32_t>{
                                   code(SpanKind::handshake),
                                   code(SpanKind::pacing)}));
}

TEST(FlightRecorder, PhaseEnterMirrorsIntoTheRing) {
  Hub hub;
  FlowTap tap = hub.flow_tap(1, "halfback");
  tap.enter_phase(us(3), SpanKind::ropr_repair);
  const Tape& tape = *hub.recorder().find(TrackKind::flow, 1);
  ASSERT_EQ(tape.size(), 1u);
  EXPECT_EQ(tape.event(0).kind, TapeEventKind::phase_enter);
  EXPECT_EQ(tape.event(0).at, us(3));
  EXPECT_EQ(tape.event(0).a, code(SpanKind::ropr_repair));
  // The span log holds the phase itself, under no root (start() not run).
  ASSERT_EQ(hub.spans().size(), 1u);
  EXPECT_EQ(hub.spans().at(0).kind, SpanKind::ropr_repair);
  EXPECT_TRUE(hub.spans().at(0).open);
}

TEST(FlightRecorder, CompletionMarksTheReturnToTheRoot) {
  Hub hub;
  FlowTap tap = hub.flow_tap(4, "tcp");
  tap.start(us(0), 1000);
  tap.established(us(10), us(10), /*karn_valid=*/true);
  tap.complete(us(30), us(30));
  const Tape& tape = *hub.recorder().find(TrackKind::flow, 4);
  EXPECT_EQ(phase_marks(tape),
            (std::vector<std::uint32_t>{code(SpanKind::handshake),
                                        code(SpanKind::blast),
                                        code(SpanKind::flow)}));
  // Root, handshake and blast spans, all closed by completion.
  ASSERT_EQ(hub.spans().size(), 3u);
  for (std::size_t i = 0; i < hub.spans().size(); ++i) {
    EXPECT_FALSE(hub.spans().at(i).open) << i;
  }
  EXPECT_EQ(hub.spans().at(0).end, us(30));
}

TEST(FlightRecorder, ManyTapesSpanSlabsWithStableContents) {
  // 3 tapes per slab forces several slab allocations; every ring must stay
  // distinct and addressable afterwards.
  FlightRecorder recorder{
      FlightRecorder::Config{.events_per_tape = 8, .tapes_per_slab = 3}};
  constexpr std::uint64_t kTapes = 20;
  for (std::uint64_t id = 0; id < kTapes; ++id) {
    Tape& tape = recorder.tape(TrackKind::flow, id);
    tape.record(us(static_cast<std::int64_t>(id)), TapeEventKind::flow_start,
                static_cast<std::uint32_t>(id));
  }
  ASSERT_EQ(recorder.tape_count(), kTapes);
  for (std::uint64_t id = 0; id < kTapes; ++id) {
    const Tape* tape = recorder.find(TrackKind::flow, id);
    ASSERT_NE(tape, nullptr);
    ASSERT_EQ(tape->size(), 1u);
    EXPECT_EQ(tape->event(0).a, id);
    // Creation order is export order.
    EXPECT_EQ(&recorder.tape_at(id), tape);
  }
}

TEST(FlightRecorder, ZeroConfigValuesAreClampedToOne) {
  FlightRecorder recorder{
      FlightRecorder::Config{.events_per_tape = 0, .tapes_per_slab = 0}};
  EXPECT_EQ(recorder.config().events_per_tape, 1u);
  EXPECT_EQ(recorder.config().tapes_per_slab, 1u);
  Tape& tape = recorder.tape(TrackKind::flow, 1);
  tape.record(us(1), TapeEventKind::flow_start);
  tape.record(us(2), TapeEventKind::complete);
  EXPECT_EQ(tape.size(), 1u);
  EXPECT_EQ(tape.event(0).kind, TapeEventKind::complete);
}

TEST(FlightRecorder, EnumNamesAreStable) {
  // Exporters serialize these strings; renaming breaks trace consumers.
  EXPECT_STREQ(to_string(TapeEventKind::phase_enter), "phase_enter");
  EXPECT_STREQ(to_string(TapeEventKind::proactive_sent), "proactive_sent");
  EXPECT_STREQ(to_string(TapeEventKind::karn_discard), "karn_discard");
}

}  // namespace
}  // namespace halfback::telemetry
