// Transport conformance suite: every Communicator implementation must
// provide the same messaging semantics (see the contract list in
// comms/communicator.h).  Parameterized over the in-process simulated
// transport and the socket transport; the socket endpoints are hosted in
// one process here (SocketWorld) so the suite exercises the real wire
// format and framing logic deterministically -- multi-process operation is
// covered by test_rank_equivalence.cpp and the distributed example.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "comms/communicator.h"
#include "comms/socket.h"

namespace svelat::comms {
namespace {

/// A world of N ranks: at(r) is the Communicator acting for rank r.  For
/// the simulated transport one object hosts every rank; for the socket
/// transport each rank has its own endpoint.
class World {
 public:
  virtual ~World() = default;
  virtual Communicator& at(int rank) = 0;
};

class SimWorld final : public World {
 public:
  explicit SimWorld(int nranks) : comm_(nranks) {}
  Communicator& at(int) override { return comm_; }

 private:
  SimCommunicator comm_;
};

class SockWorld final : public World {
 public:
  SockWorld(int nranks, int timeout_ms) : world_(nranks, timeout_ms) {}
  Communicator& at(int rank) override { return world_.rank(rank); }

 private:
  SocketWorld world_;
};

std::unique_ptr<World> make_world(const std::string& kind, int nranks,
                                  int timeout_ms = 5000) {
  if (kind == "sim") return std::make_unique<SimWorld>(nranks);
  return std::make_unique<SockWorld>(nranks, timeout_ms);
}

using Payload = std::vector<std::uint8_t>;

class ConformanceTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { world_ = make_world(GetParam(), 4); }
  Communicator& at(int rank) { return world_->at(rank); }

  std::unique_ptr<World> world_;
};

TEST_P(ConformanceTest, SizeReportsWorldRanks) {
  for (int r = 0; r < 4; ++r) EXPECT_EQ(at(r).size(), 4);
}

TEST_P(ConformanceTest, FifoOrderPerChannel) {
  at(0).send(0, 1, 7, Payload{1, 2, 3});
  at(0).send(0, 1, 7, Payload{4, 5});
  at(0).send(0, 1, 7, Payload{6});
  EXPECT_EQ(at(1).recv(1, 0, 7), (Payload{1, 2, 3}));
  EXPECT_EQ(at(1).recv(1, 0, 7), (Payload{4, 5}));
  EXPECT_EQ(at(1).recv(1, 0, 7), (Payload{6}));
}

TEST_P(ConformanceTest, TagsMultiplexIndependently) {
  at(0).send(0, 1, /*tag=*/1, Payload{11});
  at(0).send(0, 1, /*tag=*/2, Payload{22});
  at(0).send(0, 1, /*tag=*/1, Payload{12});
  // Tag 2 first: cross-tag order is free, per-tag order is FIFO.
  EXPECT_EQ(at(1).recv(1, 0, 2), (Payload{22}));
  EXPECT_EQ(at(1).recv(1, 0, 1), (Payload{11}));
  EXPECT_EQ(at(1).recv(1, 0, 1), (Payload{12}));
}

TEST_P(ConformanceTest, SendersDoNotInterfere) {
  at(0).send(0, 2, 9, Payload{0xA0});
  at(1).send(1, 2, 9, Payload{0xB1});
  EXPECT_EQ(at(2).recv(2, 1, 9), (Payload{0xB1}));
  EXPECT_EQ(at(2).recv(2, 0, 9), (Payload{0xA0}));
}

TEST_P(ConformanceTest, SelfSendLoopsBack) {
  at(3).send(3, 3, 5, Payload{42, 43});
  EXPECT_TRUE(at(3).has_pending(3, 3, 5));
  EXPECT_EQ(at(3).recv(3, 3, 5), (Payload{42, 43}));
  EXPECT_FALSE(at(3).has_pending(3, 3, 5));
}

TEST_P(ConformanceTest, HasPendingTracksArrivalAndDrain) {
  EXPECT_FALSE(at(1).has_pending(1, 0, 4));
  at(0).send(0, 1, 4, Payload{7});
  EXPECT_TRUE(at(1).has_pending(1, 0, 4));
  EXPECT_FALSE(at(1).has_pending(1, 0, /*other tag=*/8));
  (void)at(1).recv(1, 0, 4);
  EXPECT_FALSE(at(1).has_pending(1, 0, 4));
}

TEST_P(ConformanceTest, BytesSentCountsPayloadAtTheSender) {
  at(0).reset_counters();
  at(0).send(0, 1, 3, Payload(5, 0));
  at(0).send(0, 0, 3, Payload(11, 0));  // self-sends are charged too
  EXPECT_EQ(at(0).bytes_sent(), 16u);
  (void)at(1).recv(1, 0, 3);  // receiving changes nothing at the sender
  EXPECT_EQ(at(0).bytes_sent(), 16u);
  at(0).reset_counters();
  EXPECT_EQ(at(0).bytes_sent(), 0u);
}

TEST_P(ConformanceTest, EmptyPayloadSurvivesTheWire) {
  at(0).send(0, 1, 6, Payload{});
  EXPECT_TRUE(at(1).has_pending(1, 0, 6));
  EXPECT_EQ(at(1).recv(1, 0, 6), Payload{});
}

TEST_P(ConformanceTest, LargePayloadSurvivesTheWire) {
  // 64 KiB spans many stream segments (the receiver assembles the frame
  // from several reads) while still fitting the kernel's default socket
  // buffer -- required here, where one thread sends and then receives.
  Payload big(1 << 16);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  at(2).send(2, 3, 1, big);
  EXPECT_EQ(at(3).recv(3, 2, 1), big);
}

TEST_P(ConformanceTest, RecvWithoutMatchingSendThrowsTyped) {
  // Short timeout: the socket transport must give up waiting on the peer
  // (kTimeout, after its retry policy) where the simulated one detects
  // the missing send instantly (kNoMessage).  Both surface as CommError,
  // not abort.
  auto world = make_world(GetParam(), 2, /*timeout_ms=*/50);
  try {
    (void)world->at(1).recv(1, 0, 99);
    FAIL() << "recv of a never-sent message must throw";
  } catch (const CommError& e) {
    EXPECT_TRUE(e.status() == CommStatus::kTimeout ||
                e.status() == CommStatus::kNoMessage)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("svelat comm ["), std::string::npos);
  }
}

TEST_P(ConformanceTest, SelfRecvWithoutSendFailsInstantly) {
  // Nothing can ever loop back later, so every transport detects this
  // without waiting -- and without burning retries (kNoMessage is not a
  // transient class).
  try {
    (void)at(2).recv(2, 2, 99);
    FAIL() << "self-recv of a never-sent message must throw";
  } catch (const CommError& e) {
    EXPECT_EQ(e.status(), CommStatus::kNoMessage) << e.what();
  }
  EXPECT_EQ(at(2).retries(), 0u);
}

TEST_P(ConformanceTest, StatusLayerReportsFailureWithoutThrowing) {
  Payload out;
  const CommStatus st = at(2).recv_status(2, 2, 99, out);
  EXPECT_EQ(st, CommStatus::kNoMessage);
}

INSTANTIATE_TEST_SUITE_P(Transports, ConformanceTest,
                         ::testing::Values("sim", "socket"),
                         [](const auto& info) { return std::string(info.param); });

// Socket-specific: a peer that exits after completing its sends leaves its
// descriptor readable (POLLHUP) forever.  That EOF sits on a frame
// boundary and must not be mistaken for a torn frame -- buffered frames
// stay deliverable, drains stop cleanly, and only a recv that can never be
// satisfied fails, with the typed kPeerExited verdict (regression:
// large-payload runs used to die with "socket closed mid-frame" when the
// progress engine polled an exited peer).
TEST(SocketPeerExit, CleanExitIsNotATornFrame) {
  auto mesh = make_socket_mesh(2);
  auto gone = std::make_unique<SocketCommunicator>(2, 0, std::move(mesh[0]), 500);
  SocketCommunicator survivor(2, 1, std::move(mesh[1]), 500);
  gone->send(0, 1, 1, Payload{1, 2, 3});
  gone->send(0, 1, 2, Payload{4});
  gone.reset();  // rank 0 exits cleanly after finishing its sends

  EXPECT_TRUE(survivor.has_pending(1, 0, 1));  // drains up to (not past) the EOF
  EXPECT_EQ(survivor.recv(1, 0, 1), (Payload{1, 2, 3}));
  EXPECT_EQ(survivor.recv(1, 0, 2), (Payload{4}));
  EXPECT_FALSE(survivor.has_pending(1, 0, 1));  // no hang on the readable EOF
  try {
    (void)survivor.recv(1, 0, 1);
    FAIL() << "recv from an exited peer must throw";
  } catch (const CommError& e) {
    EXPECT_EQ(e.status(), CommStatus::kPeerExited) << e.what();
  }
  // The verdict is sticky and fast: no timeout wait on later calls either.
  Payload out;
  EXPECT_EQ(survivor.try_recv(1, 0, 1, out), CommStatus::kPeerExited);
  EXPECT_EQ(survivor.try_send(1, 0, 3, Payload{9}), CommStatus::kPeerExited);
}

// Socket-specific: two ranks that both send a frame far larger than the
// socket buffer before receiving must not deadlock.  Each sender takes in
// the other's bytes while its own buffer is full, so both frames land
// whole (regression: both sides used to wait on the other's half-sent
// payload until the timeout and report kTornFrame).
TEST(SocketFlowControl, TwoWayLargeSendsDoNotDeadlock) {
  SocketWorld world(2, /*recv_timeout_ms=*/2000);
  const auto payload_of = [](int rank) {
    Payload p(std::size_t{4} << 20);
    for (std::size_t i = 0; i < p.size(); ++i)
      p[i] = static_cast<std::uint8_t>((i * 2654435761u >> 24) + 7 * rank);
    return p;
  };
  CommStatus sent[2] = {};
  CommStatus received[2] = {};
  Payload got[2];
  std::atomic<int> ready{0};
  const auto rank_body = [&](int r) {
    const Payload mine = payload_of(r);
    // Start both sends together, so each meets the other's full buffer.
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    sent[r] = world.rank(r).try_send(r, 1 - r, 3, mine);
    received[r] = world.rank(r).try_recv(r, 1 - r, 3, got[r]);
  };
  std::thread other(rank_body, 1);
  rank_body(0);
  other.join();
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(sent[r], CommStatus::kOk)
        << "rank " << r << ": " << comm_status_name(sent[r]);
    EXPECT_EQ(received[r], CommStatus::kOk)
        << "rank " << r << ": " << comm_status_name(received[r]);
    EXPECT_TRUE(got[r] == payload_of(1 - r)) << "rank " << r << " payload differs";
  }
}

}  // namespace
}  // namespace svelat::comms
