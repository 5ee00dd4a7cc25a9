// AcceptGate's fd-exhaustion episode latch, driven directly: no server,
// no threads, so the result does not depend on how many cores the host
// has or how the accept loop and the test thread interleave.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <vector>

#include <gtest/gtest.h>

#include "net/connection_core.h"
#include "net/server_limits.h"

namespace dynaprox::net {
namespace {

TEST(AcceptGateTest, AcceptOnLastFreeDescriptorKeepsEpisodeOpen) {
  ServerLimits limits;
  IngressCounters counters;
  std::atomic<int64_t> live{0};
  std::atomic<bool> exhausted{false};
  AcceptGate gate({&limits, &counters, &live, &exhausted, "test"});

  // Entering the outage counts once, however often accept keeps failing.
  EXPECT_EQ(gate.OnAcceptFailure(EMFILE),
            AcceptGate::FailureAction::kBackoff);
  EXPECT_EQ(gate.OnAcceptFailure(EMFILE),
            AcceptGate::FailureAction::kBackoff);
  EXPECT_EQ(counters.accept_fd_exhaustion_episodes.load(), 1u);
  ASSERT_TRUE(exhausted.load());

  rlimit original{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &original), 0);
  rlimit tight = original;
  tight.rlim_cur = 128;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  // Fill the fd table; the last fd opened stands for the connection the
  // listener accepted into the process's last free slot.
  std::vector<int> held;
  for (;;) {
    int fd = ::open("/dev/null", O_RDONLY);
    if (fd < 0) break;
    held.push_back(fd);
  }
  const bool filled = held.size() >= 2;
  bool latched_when_full = false;
  bool latched_after_free = true;
  if (filled) {
    int last = held.back();
    held.pop_back();
    EXPECT_TRUE(gate.Admit(last, nullptr));
    latched_when_full = exhausted.load();
    // One descriptor free again: the next accept really ends the outage.
    ::close(held.back());
    held.pop_back();
    EXPECT_TRUE(gate.Admit(last, nullptr));
    latched_after_free = exhausted.load();
    ::close(last);
  }
  for (int fd : held) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &original), 0);

  ASSERT_TRUE(filled);
  EXPECT_TRUE(latched_when_full)
      << "an accept that took the last free fd must not end the episode";
  EXPECT_FALSE(latched_after_free)
      << "an accept that leaves a descriptor free must re-arm the latch";
  EXPECT_EQ(counters.accept_fd_exhaustion_episodes.load(), 1u);

  // Re-armed: the next outage is counted as a new episode.
  gate.OnAcceptFailure(EMFILE);
  EXPECT_EQ(counters.accept_fd_exhaustion_episodes.load(), 2u);
}

}  // namespace
}  // namespace dynaprox::net
