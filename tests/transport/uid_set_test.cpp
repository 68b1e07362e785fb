// transport::UidSet, the paged uid bitmap behind the agent's wire-duplicate
// check and the auditor's per-flow delivery set: differential against
// std::unordered_set over every key shape the simulator produces, plus a
// footprint bound for a long flow.
#include "transport/uid_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "net/packet.h"
#include "sim/random.h"

namespace halfback::transport {
namespace {

/// Insert every key into both sets (checking each insert's answer), then
/// probe the keys and their neighbours for membership.
void expect_same_as_reference(const std::vector<std::uint64_t>& keys) {
  UidSet set;
  std::unordered_set<std::uint64_t> reference;
  for (std::uint64_t key : keys) {
    ASSERT_EQ(set.insert(key), reference.insert(key).second) << "key " << key;
  }
  EXPECT_EQ(set.size(), reference.size());
  for (std::uint64_t key : keys) {
    for (std::uint64_t probe : {key - 1, key, key + 1, key ^ (std::uint64_t{1} << 40)}) {
      ASSERT_EQ(set.contains(probe), reference.count(probe) == 1) << "probe " << probe;
    }
  }
}

std::uint64_t uid(std::uint64_t flow, std::uint64_t counter) {
  return (flow << 24) + counter;
}

std::uint64_t typed(std::uint64_t key, net::PacketType type) {
  return key ^ (static_cast<std::uint64_t>(type) << 62);
}

TEST(UidSetTest, SequentialPerFlowUidsInterleaved) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t counter = 1; counter <= 3000; ++counter) {
    for (std::uint64_t flow = 1; flow <= 5; ++flow) keys.push_back(uid(flow, counter));
  }
  // Wire duplicates: every tenth uid arrives again.
  for (std::uint64_t counter = 1; counter <= 3000; counter += 10) keys.push_back(uid(3, counter));
  expect_same_as_reference(keys);
}

TEST(UidSetTest, RlpOffsetUids) {
  // RC3's low-priority copies count from 0x800000 within the flow's range.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t counter = 1; counter <= 2000; ++counter) {
    keys.push_back(uid(7, counter));
    keys.push_back(uid(7, 0x800000 + counter));
  }
  expect_same_as_reference(keys);
}

TEST(UidSetTest, PacketTypeBitsAt62) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t counter = 1; counter <= 1500; ++counter) {
    for (net::PacketType type : {net::PacketType::syn, net::PacketType::syn_ack,
                                 net::PacketType::data, net::PacketType::ack}) {
      keys.push_back(typed(uid(2, counter), type));
    }
  }
  expect_same_as_reference(keys);
}

TEST(UidSetTest, KeyZeroIsAnOrdinaryMember) {
  UidSet set;
  EXPECT_FALSE(set.contains(0));
  EXPECT_TRUE(set.insert(0));
  EXPECT_TRUE(set.contains(0));
  EXPECT_FALSE(set.insert(0));
  EXPECT_FALSE(set.contains(1));
  EXPECT_EQ(set.size(), 1u);
  expect_same_as_reference({0, 1, 511, 512, 0, 513, 1});
}

TEST(UidSetTest, SparseHugeKeys) {
  sim::Random rng{42};
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 20'000; ++i) keys.push_back(rng.engine()());
  keys.push_back(UINT64_MAX);
  keys.push_back(UINT64_MAX - 511);
  keys.push_back(std::uint64_t{1} << 63);
  for (int i = 0; i < 500; ++i) keys.push_back(keys[static_cast<std::size_t>(i) * 7]);
  expect_same_as_reference(keys);
}

TEST(UidSetTest, ALongFlowsUidsStayUnder64KiB) {
  // A 50 MB flow is ~34K segments; with retransmissions and the ACK
  // direction an agent sees about 70K uids. The slot table this replaces
  // reserved 2 MB for them.
  UidSet set;
  for (std::uint64_t counter = 1; counter <= 70'000; ++counter) {
    ASSERT_TRUE(set.insert(typed(uid(9, counter), net::PacketType::data)));
  }
  EXPECT_EQ(set.size(), 70'000u);
  EXPECT_LT(set.footprint_bytes(), 64u * 1024u);
}

TEST(UidSetTest, ConstructionAllocatesNothing) {
  const UidSet set;
  EXPECT_EQ(set.footprint_bytes(), 0u);
  EXPECT_FALSE(set.contains(12345));
}

}  // namespace
}  // namespace halfback::transport
