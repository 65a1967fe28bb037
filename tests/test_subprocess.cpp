// Subprocess helper: a dropped or overwritten handle kills and reaps its
// child instead of leaving it running.

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <optional>
#include <utility>

#include "hyperpart/util/subprocess.hpp"

namespace hp {
namespace {

/// True while `pid` names a process, a zombie included: a reaped child's
/// pid is gone.
bool pid_exists(pid_t pid) { return kill(pid, 0) == 0 || errno != ESRCH; }

std::optional<subprocess::Child> spawn_sleeper(bool new_group) {
  subprocess::SpawnOptions opts;
  opts.new_process_group = new_group;
  return subprocess::spawn("/bin/sleep", {"60"}, opts);
}

TEST(Subprocess, DroppedHandleKillsAndReapsTheChild) {
  for (const bool new_group : {true, false}) {
    pid_t pid = -1;
    {
      auto child = spawn_sleeper(new_group);
      ASSERT_TRUE(child.has_value() && child->valid());
      pid = child->pid();
      EXPECT_TRUE(pid_exists(pid));
    }
    EXPECT_FALSE(pid_exists(pid)) << "new_group " << new_group;
  }
}

TEST(Subprocess, OverwrittenHandleKillsAndReapsTheChild) {
  auto first = spawn_sleeper(true);
  auto second = spawn_sleeper(true);
  ASSERT_TRUE(first.has_value() && second.has_value());
  const pid_t replaced = first->pid();
  const pid_t kept = second->pid();
  *first = std::move(*second);
  EXPECT_FALSE(pid_exists(replaced));
  EXPECT_EQ(first->pid(), kept);
  EXPECT_FALSE(second->valid());
  first->kill_group(SIGKILL);
  EXPECT_EQ(first->wait(10.0).term_signal, SIGKILL);
}

TEST(Subprocess, WaitedChildIsLeftAlone) {
  auto child = subprocess::spawn("/bin/sleep", {"0"});
  ASSERT_TRUE(child.has_value());
  EXPECT_TRUE(child->wait(10.0).ok());
  EXPECT_FALSE(child->valid());
}

}  // namespace
}  // namespace hp
