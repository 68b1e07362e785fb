#include "telemetry/flight_recorder.h"

namespace halfback::telemetry {

const char* to_string(TapeEventKind kind) {
  switch (kind) {
    case TapeEventKind::flow_start: return "flow_start";
    case TapeEventKind::syn_sent: return "syn_sent";
    case TapeEventKind::established: return "established";
    case TapeEventKind::phase_enter: return "phase_enter";
    case TapeEventKind::segment_sent: return "segment_sent";
    case TapeEventKind::retx_sent: return "retx_sent";
    case TapeEventKind::proactive_sent: return "proactive_sent";
    case TapeEventKind::ack_received: return "ack_received";
    case TapeEventKind::rtt_sample: return "rtt_sample";
    case TapeEventKind::karn_discard: return "karn_discard";
    case TapeEventKind::rto_fired: return "rto_fired";
    case TapeEventKind::ropr_abandoned: return "ropr_abandoned";
    case TapeEventKind::rlp_abandoned: return "rlp_abandoned";
    case TapeEventKind::fault_hit: return "fault_hit";
    case TapeEventKind::queue_drop: return "queue_drop";
    case TapeEventKind::complete: return "complete";
  }
  return "?";
}

}  // namespace halfback::telemetry
