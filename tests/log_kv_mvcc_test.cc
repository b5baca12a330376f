// MVCC surface of LogKvStore (DESIGN.md §15): epoch publish/pin semantics,
// pending-tail rollback, TTL visibility, compaction byte-identity under
// pins, and the SIGKILL-mid-compaction crash windows. The crash-window
// tests fork real processes and self-SIGKILL inside Compact, so they live
// behind the MultiProcessKv prefix: the main ctest entry filters all
// MultiProcess* suites out and xfraud_mp_tests runs them under a hard
// timeout (tools/ci.sh --mode=mp).

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "xfraud/common/atomic_file.h"
#include "xfraud/common/crc32.h"
#include "xfraud/fault/fault_injector.h"
#include "xfraud/kv/log_kv.h"
#include "xfraud/kv/snapshot.h"

namespace xfraud::kv {
namespace {

std::string TempPath(const std::string& name) {
  std::string path = "/tmp/xf-mvcc-" + std::to_string(::getpid()) + "-" + name;
  std::remove(path.c_str());
  std::remove((path + ".compact").c_str());
  return path;
}

std::unique_ptr<LogKvStore> OpenOrDie(const std::string& path) {
  auto opened = LogKvStore::Open(path);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(opened).value();
}

TEST(LogKvMvccTest, EpochsAreImmutableVersionedSnapshots) {
  std::string path = TempPath("epochs.kv");
  auto store = OpenOrDie(path);
  ASSERT_TRUE(store->Put("k", "v1").ok());
  auto e1 = store->PublishEpoch();
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ(e1.value(), 1u);
  ASSERT_TRUE(store->Put("k", "v2").ok());
  ASSERT_TRUE(store->Put("only2", "x").ok());
  auto e2 = store->PublishEpoch();
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e2.value(), 2u);
  EXPECT_EQ(store->published_epoch(), 2u);

  std::string value;
  ASSERT_TRUE(store->GetAt("k", 1, &value).ok());
  EXPECT_EQ(value, "v1");
  ASSERT_TRUE(store->GetAt("k", 2, &value).ok());
  EXPECT_EQ(value, "v2");
  EXPECT_TRUE(store->GetAt("only2", 1, &value).IsNotFound());
  ASSERT_TRUE(store->GetAt("only2", 2, &value).ok());
  // The head alias reproduces plain Get.
  ASSERT_TRUE(store->GetAt("k", kHeadEpoch, &value).ok());
  EXPECT_EQ(value, "v2");
  // Unpublished epochs are a precondition failure, not an empty read.
  EXPECT_TRUE(store->GetAt("k", 3, &value).IsFailedPrecondition());
  EXPECT_TRUE(store->GetAt("k", 0, &value).IsFailedPrecondition());

  std::vector<std::string> at1 = store->KeysWithPrefixAt("", 1);
  EXPECT_EQ(at1, std::vector<std::string>({"k"}));
  std::vector<std::string> at2 = store->KeysWithPrefixAt("", 2);
  EXPECT_EQ(at2, std::vector<std::string>({"k", "only2"}));
  std::remove(path.c_str());
}

TEST(LogKvMvccTest, PendingWritesInvisibleToEpochsUntilPublish) {
  std::string path = TempPath("pending.kv");
  auto store = OpenOrDie(path);
  ASSERT_TRUE(store->Put("a", "1").ok());
  ASSERT_TRUE(store->PublishEpoch().ok());
  ASSERT_TRUE(store->Put("b", "2").ok());

  std::string value;
  // Head sees the pending write; the published epoch does not.
  ASSERT_TRUE(store->Get("b", &value).ok());
  EXPECT_TRUE(store->GetAt("b", 1, &value).IsNotFound());
  ASSERT_TRUE(store->PublishEpoch().ok());
  ASSERT_TRUE(store->GetAt("b", 2, &value).ok());
  std::remove(path.c_str());
}

TEST(LogKvMvccTest, DiscardPendingRollsBackToLastPublish) {
  std::string path = TempPath("discard.kv");
  {
    auto store = OpenOrDie(path);
    ASSERT_TRUE(store->Put("keep", "yes").ok());
    ASSERT_TRUE(store->PublishEpoch().ok());
    ASSERT_TRUE(store->Put("keep", "overwritten").ok());
    ASSERT_TRUE(store->Put("drop", "no").ok());
    ASSERT_TRUE(store->DiscardPending().ok());
    std::string value;
    ASSERT_TRUE(store->Get("keep", &value).ok());
    EXPECT_EQ(value, "yes");
    EXPECT_TRUE(store->Get("drop", &value).IsNotFound());
    EXPECT_EQ(store->published_epoch(), 1u);
  }
  // The truncation is durable: a reopen replays only the committed prefix.
  auto store = OpenOrDie(path);
  std::string value;
  ASSERT_TRUE(store->Get("keep", &value).ok());
  EXPECT_EQ(value, "yes");
  EXPECT_TRUE(store->Get("drop", &value).IsNotFound());
  std::remove(path.c_str());
}

TEST(LogKvMvccTest, CrashedPendingTailIsDurableUntilDiscarded) {
  std::string path = TempPath("crash_pending.kv");
  {
    auto store = OpenOrDie(path);
    ASSERT_TRUE(store->Put("a", "1").ok());
    ASSERT_TRUE(store->PublishEpoch().ok());
    ASSERT_TRUE(store->Put("b", "2").ok());
  }  // "crash": pending write b never published
  auto store = OpenOrDie(path);
  EXPECT_EQ(store->published_epoch(), 1u);
  std::string value;
  // Replay surfaces the pending tail at the head (an ingestor that wants
  // to resume could publish it) — but it is not part of any epoch.
  ASSERT_TRUE(store->Get("b", &value).ok());
  EXPECT_TRUE(store->GetAt("b", 1, &value).IsNotFound());
  ASSERT_TRUE(store->DiscardPending().ok());
  EXPECT_TRUE(store->Get("b", &value).IsNotFound());
  std::remove(path.c_str());
}

TEST(LogKvMvccTest, SnapshotHandlePinsAgainstCompaction) {
  std::string path = TempPath("pins.kv");
  auto store = OpenOrDie(path);
  ASSERT_TRUE(store->Put("k", "old").ok());
  ASSERT_TRUE(store->PublishEpoch().ok());

  auto pin = SnapshotHandle::PinLatest(store.get());
  ASSERT_TRUE(pin.ok());
  EXPECT_EQ(pin.value().epoch(), 1u);

  ASSERT_TRUE(store->Put("k", "new").ok());
  ASSERT_TRUE(store->PublishEpoch().ok());
  ASSERT_TRUE(store->Compact().ok());

  // The pinned epoch survives compaction bit-identically.
  std::string value;
  ASSERT_TRUE(store->GetAt("k", 1, &value).ok());
  EXPECT_EQ(value, "old");
  EXPECT_EQ(store->earliest_epoch(), 1u);

  // Releasing the last pin unblocks GC: the floor advances and the old
  // version becomes unreadable (FailedPrecondition, never a stale value).
  pin.value().Release();
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_EQ(store->earliest_epoch(), 2u);
  EXPECT_TRUE(store->GetAt("k", 1, &value).IsFailedPrecondition());
  ASSERT_TRUE(store->GetAt("k", 2, &value).ok());
  EXPECT_EQ(value, "new");
  std::remove(path.c_str());
}

TEST(LogKvMvccTest, PinRejectsUnpublishedAndCompactedEpochs) {
  std::string path = TempPath("pin_reject.kv");
  auto store = OpenOrDie(path);
  EXPECT_TRUE(SnapshotHandle::Pin(store.get(), 1).status()
                  .IsFailedPrecondition());  // nothing published yet
  ASSERT_TRUE(store->Put("k", "1").ok());
  ASSERT_TRUE(store->PublishEpoch().ok());
  ASSERT_TRUE(store->Put("k", "2").ok());
  ASSERT_TRUE(store->PublishEpoch().ok());
  ASSERT_TRUE(store->Compact().ok());  // floor -> 2
  EXPECT_TRUE(
      SnapshotHandle::Pin(store.get(), 1).status().IsFailedPrecondition());
  EXPECT_TRUE(SnapshotHandle::Pin(store.get(), 2).ok());
  std::remove(path.c_str());
}

TEST(LogKvMvccTest, TtlExpiresOldEpochsAtReadTime) {
  std::string path = TempPath("ttl.kv");
  auto store = OpenOrDie(path);
  store->SetTtlEpochs(2);
  ASSERT_TRUE(store->Put("old", "x").ok());
  ASSERT_TRUE(store->PublishEpoch().ok());  // written at epoch 1
  ASSERT_TRUE(store->PublishEpoch().ok());  // epoch 2 (empty)

  std::string value;
  // Visible while read_epoch - write_epoch < ttl…
  ASSERT_TRUE(store->GetAt("old", 2, &value).ok());
  ASSERT_TRUE(store->PublishEpoch().ok());  // epoch 3
  // …expired at epoch 3 (3 - 1 >= 2) and at the head.
  EXPECT_TRUE(store->GetAt("old", 3, &value).IsNotFound());
  EXPECT_TRUE(store->Get("old", &value).IsNotFound());
  // Expiry is a visibility rule: the older pinned epoch still sees it.
  ASSERT_TRUE(store->GetAt("old", 2, &value).ok());
  EXPECT_EQ(value, "x");
  std::remove(path.c_str());
}

/// Records every (epoch, key) -> value/NotFound observation so compaction
/// byte-identity is checked against the full readable history.
std::vector<std::string> HistorySnapshot(LogKvStore* store,
                                         const std::vector<std::string>& keys) {
  std::vector<std::string> obs;
  for (uint64_t e = store->earliest_epoch(); e <= store->published_epoch();
       ++e) {
    for (const std::string& key : keys) {
      std::string value;
      Status s = store->GetAt(key, e, &value);
      obs.push_back(std::to_string(e) + "/" + key + "=" +
                    (s.ok() ? value : s.ToString()));
    }
  }
  return obs;
}

TEST(LogKvMvccTest, CompactionPreservesEveryReadableEpochBitIdentically) {
  std::string path = TempPath("compact_ident.kv");
  auto store = OpenOrDie(path);
  const std::vector<std::string> rounds_keys = {"a", "b", "c"};
  // "s" walks its index slot from the inline first version to the spilled
  // chain: a rewrite in epoch 1 (inline), versions in epochs 2 and 3 with a
  // rewrite inside epoch 3 (spilled), then a tombstone in epoch 4.
  std::vector<std::string> keys = rounds_keys;
  keys.push_back("s");
  for (int round = 0; round < 6; ++round) {
    for (const std::string& key : rounds_keys) {
      ASSERT_TRUE(
          store->Put(key, key + ":round" + std::to_string(round)).ok());
    }
    if (round == 3) {
      ASSERT_TRUE(store->Delete("c").ok());
      ASSERT_TRUE(store->Delete("s").ok());
    }
    if (round < 3) {
      ASSERT_TRUE(store->Put("s", "s:draft" + std::to_string(round)).ok());
    }
    if (round == 0 || round == 2) {
      ASSERT_TRUE(store->Put("s", "s:epoch" + std::to_string(round + 1)).ok());
    }
    ASSERT_TRUE(store->PublishEpoch().ok());
  }
  auto expect_spill_history = [&](const char* when) {
    std::string value;
    ASSERT_TRUE(store->GetAt("s", 2, &value).ok()) << when;
    EXPECT_EQ(value, "s:draft1") << when;
    ASSERT_TRUE(store->GetAt("s", 3, &value).ok()) << when;
    EXPECT_EQ(value, "s:epoch3") << when;
    EXPECT_TRUE(store->GetAt("s", 4, &value).IsNotFound()) << when;
    EXPECT_TRUE(store->Get("s", &value).IsNotFound()) << when;
  };
  std::string value;
  ASSERT_TRUE(store->GetAt("s", 1, &value).ok());
  EXPECT_EQ(value, "s:epoch1");
  expect_spill_history("before compact");
  auto pin = SnapshotHandle::Pin(store.get(), 2);
  ASSERT_TRUE(pin.ok());

  std::vector<std::string> before = HistorySnapshot(store.get(), keys);
  auto reclaimed = store->Compact();
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_GT(reclaimed.value(), 0);  // overwrites below the floor collapsed
  EXPECT_EQ(store->earliest_epoch(), 2u);
  std::vector<std::string> after = HistorySnapshot(store.get(), keys);
  // Epoch 1 fell below the floor; every epoch still readable is identical.
  std::vector<std::string> expected(before.begin() + keys.size(),
                                    before.end());
  EXPECT_EQ(after, expected);
  expect_spill_history("after compact");
  // The compacted image, pinned by its size and Crc32: how the index holds
  // a chain (inline or spilled) must not change a byte of the file.
  const Result<std::string> image = ReadFileToString(path);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  EXPECT_EQ(image.value().size(), 527u);
  EXPECT_EQ(Crc32(image.value().data(), image.value().size()), 0x5962227cu);

  // And the surviving history is durable across reopen.
  pin.value().Release();
  store = OpenOrDie(path);
  EXPECT_EQ(store->published_epoch(), 6u);
  EXPECT_EQ(store->earliest_epoch(), 2u);
  EXPECT_EQ(HistorySnapshot(store.get(), keys), expected);
  expect_spill_history("after reopen");
  std::remove(path.c_str());
}

TEST(LogKvMvccTest, PinnedReadersRaceWritersAndCompactionSafely) {
  std::string path = TempPath("race.kv");
  auto store = OpenOrDie(path);
  ASSERT_TRUE(store->Put("k", "epoch1").ok());
  ASSERT_TRUE(store->PublishEpoch().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> torn_reads{0};
  std::thread reader([&] {
    while (!stop.load()) {
      auto pin = SnapshotHandle::PinLatest(store.get());
      if (!pin.ok()) continue;
      const uint64_t epoch = pin.value().epoch();
      std::string value;
      Status s = store->GetAt("k", epoch, &value);
      // A pinned epoch read must always succeed and always observe that
      // epoch's committed value — never a half-published one.
      if (!s.ok() || value != "epoch" + std::to_string(epoch)) {
        torn_reads.fetch_add(1);
      }
    }
  });
  for (int i = 2; i <= 40; ++i) {
    ASSERT_TRUE(store->Put("k", "epoch" + std::to_string(i)).ok());
    ASSERT_TRUE(store->PublishEpoch().ok());
    if (i % 8 == 0) {
      ASSERT_TRUE(store->Compact().ok());
    }
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(torn_reads.load(), 0);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// SIGKILL crash windows inside Compact (real process death, forked).
// ---------------------------------------------------------------------------

/// Builds the fixture store: three published epochs of overwrites plus one
/// pending (uncommitted) write.
void BuildCrashFixture(const std::string& path) {
  auto store = OpenOrDie(path);
  for (int e = 1; e <= 3; ++e) {
    ASSERT_TRUE(store->Put("k", "epoch" + std::to_string(e)).ok());
    ASSERT_TRUE(store->Put("stable", "forever").ok());
    ASSERT_TRUE(store->PublishEpoch().ok());
  }
  ASSERT_TRUE(store->Put("pending", "uncommitted").ok());
}

TEST(MultiProcessKv, SigkillInEveryCompactionPhaseLosesNoPublishedEpoch) {
  std::string path = TempPath("sigkill_compact.kv");
  BuildCrashFixture(path);

  // Phase 0: image written, not fsynced. Phase 1: fsynced, not renamed.
  // Phase 2: renamed (the new image IS the log). The contract: whenever the
  // process dies, a reopen finds every published epoch intact — the old
  // image or the new one, never a torn hybrid.
  for (int phase = 0; phase <= 2; ++phase) {
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: hold a live snapshot pin (floor stays at 1 so no epoch may
      // be collapsed), then die inside Compact at the given phase.
      auto opened = LogKvStore::Open(path);
      if (!opened.ok()) ::_exit(10);
      auto store = std::move(opened).value();
      auto pin = SnapshotHandle::Pin(store.get(), 1);
      if (!pin.ok()) ::_exit(11);
      store->SetCompactionHook([phase](int at) {
        if (at == phase) fault::KillCurrentProcess();
      });
      (void)store->Compact();
      ::_exit(12);  // unreachable when the hook fired
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus))
        << "phase " << phase << ": child exited " << WEXITSTATUS(wstatus)
        << " instead of dying by signal";
    EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);

    auto store = OpenOrDie(path);
    EXPECT_EQ(store->published_epoch(), 3u) << "phase " << phase;
    EXPECT_EQ(store->earliest_epoch(), 1u) << "phase " << phase;
    std::string value;
    for (uint64_t e = 1; e <= 3; ++e) {
      ASSERT_TRUE(store->GetAt("k", e, &value).ok())
          << "phase " << phase << " epoch " << e;
      EXPECT_EQ(value, "epoch" + std::to_string(e));
      ASSERT_TRUE(store->GetAt("stable", e, &value).ok());
      EXPECT_EQ(value, "forever");
    }
    // The pending tail is preserved verbatim by compaction and replay (it
    // is durable, just uncommitted); only DiscardPending may drop it.
    ASSERT_TRUE(store->Get("pending", &value).ok()) << "phase " << phase;
    EXPECT_EQ(value, "uncommitted");
  }
  std::remove(path.c_str());
  std::remove((path + ".compact").c_str());
}

TEST(MultiProcessKv, SigkillMidCompactWithGcFloorKeepsSurvivingHistory) {
  std::string path = TempPath("sigkill_floor.kv");
  BuildCrashFixture(path);

  // No pins in the child: the floor is published (3) and epochs 1-2 are
  // legitimately collapsible. Whatever phase the kill lands in, reopen
  // must see published == 3 and epoch 3 bit-identical; the floor is either
  // still 1 (old image) or 3 (new image) — never in between, because the
  // floor record and the collapse land in the same atomic rename.
  for (int phase = 0; phase <= 2; ++phase) {
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      auto opened = LogKvStore::Open(path);
      if (!opened.ok()) ::_exit(10);
      auto store = std::move(opened).value();
      store->SetCompactionHook([phase](int at) {
        if (at == phase) fault::KillCurrentProcess();
      });
      (void)store->Compact();
      ::_exit(12);
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus)) << "phase " << phase;

    auto store = OpenOrDie(path);
    EXPECT_EQ(store->published_epoch(), 3u) << "phase " << phase;
    uint64_t floor = store->earliest_epoch();
    EXPECT_TRUE(floor == 1u || floor == 3u)
        << "phase " << phase << ": torn floor " << floor;
    std::string value;
    ASSERT_TRUE(store->GetAt("k", 3, &value).ok()) << "phase " << phase;
    EXPECT_EQ(value, "epoch3");
    ASSERT_TRUE(store->GetAt("stable", 3, &value).ok());
    EXPECT_EQ(value, "forever");
    if (floor == 1u) {
      ASSERT_TRUE(store->GetAt("k", 1, &value).ok());
      EXPECT_EQ(value, "epoch1");
    } else {
      EXPECT_TRUE(store->GetAt("k", 1, &value).IsFailedPrecondition());
    }
  }
  std::remove(path.c_str());
  std::remove((path + ".compact").c_str());
}

}  // namespace
}  // namespace xfraud::kv
