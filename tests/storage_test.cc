#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>

#include "storage/answer_wal.h"
#include "storage/state_checkpoint.h"
#include "storage/worker_store.h"

namespace docs::storage {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// A save never reads the checkpoint it replaces: one whose first record is
/// corrupt, with checksum-valid records after it (mid-file corruption, which
/// LogStore::Open refuses as DataLoss), is overwritten like any other, with
/// the same bytes a save to a fresh path writes.
TEST(StateCheckpointTest, SaveOverMidFileCorruptedCheckpointSucceeds) {
  const std::string path = TempPath("checkpoint_over_corrupt.log");
  const std::string fresh = TempPath("checkpoint_over_corrupt_fresh.log");
  std::remove(path.c_str());
  std::remove(fresh.c_str());
  StateCheckpoint checkpoint;
  checkpoint.tasks.resize(3);
  for (auto& task : checkpoint.tasks) task.domain_vector = {0.5, 0.5};
  checkpoint.workers.resize(1);
  checkpoint.workers[0].external_id = "w0";
  checkpoint.answers = {{0, 0, 1}, {1, 0, 0}, {2, 0, 1}};
  ASSERT_TRUE(SaveStateCheckpoint(checkpoint, path).ok());

  std::string bytes = ReadBytes(path);
  ASSERT_EQ(bytes.compare(0, 9, "PUT task "), 0);
  bytes[9] = '7';  // the first record's task index: its checksum now fails
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  ASSERT_EQ(LoadStateCheckpoint(path).status().code(), StatusCode::kDataLoss);

  ASSERT_TRUE(SaveStateCheckpoint(checkpoint, path).ok());
  ASSERT_TRUE(SaveStateCheckpoint(checkpoint, fresh).ok());
  EXPECT_EQ(ReadBytes(path), ReadBytes(fresh));
  auto loaded = LoadStateCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->answers.size(), 3u);
}

/// The empty worker id is a legal id on the wire: its records (`reg `,
/// `ans <id> <task> <choice> `, `dedup <id> <CODE> `) end in an empty hex
/// field, and Open must parse them back rather than refuse the whole log.
/// Writes one record of each kind through `write` (after a plain `reg w1`),
/// and returns what a reopen reads.
AnswerWal::Contents RoundTrip(const std::string& name,
                              const std::function<Status(AnswerWal&)>& write) {
  const std::string path = TempPath(name);
  std::remove(path.c_str());
  AnswerWal::Contents contents;
  {
    auto wal = AnswerWal::Open(path, &contents);
    EXPECT_TRUE(wal.ok()) << wal.status().ToString();
    if (!wal.ok()) return {};
    EXPECT_TRUE(wal->AppendRegistration("w1").ok());
    EXPECT_TRUE(write(*wal).ok());
  }
  auto wal = AnswerWal::Open(path, &contents);
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  return contents;
}

TEST(AnswerWalTest, EmptyWorkerIdRegistrationRoundTrips) {
  const AnswerWal::Contents contents =
      RoundTrip("wal_empty_reg.log",
                [](AnswerWal& wal) { return wal.AppendRegistration(""); });
  ASSERT_EQ(contents.records.size(), 2u);
  EXPECT_EQ(contents.records[0].worker_id, "w1");
  EXPECT_EQ(contents.records[1].kind, AnswerWal::Record::Kind::kRegister);
  EXPECT_EQ(contents.records[1].worker_id, "");
}

TEST(AnswerWalTest, EmptyWorkerIdAnswerRoundTrips) {
  const AnswerWal::Contents contents =
      RoundTrip("wal_empty_ans.log",
                [](AnswerWal& wal) { return wal.AppendAnswer("", 7, 3, 1); });
  ASSERT_EQ(contents.records.size(), 2u);
  const AnswerWal::Record& answer = contents.records[1];
  EXPECT_EQ(answer.kind, AnswerWal::Record::Kind::kAnswer);
  EXPECT_EQ(answer.worker_id, "");
  EXPECT_EQ(answer.request_id, 7u);
  EXPECT_EQ(answer.task, 3u);
  EXPECT_EQ(answer.choice, 1u);
}

TEST(AnswerWalTest, EmptyWorkerIdDedupRoundTrips) {
  const AnswerWal::Contents contents =
      RoundTrip("wal_empty_dedup.log", [](AnswerWal& wal) {
        return wal.ResetTo([](const AnswerWal::DedupSink& sink) {
          sink("", 7, StatusCode::kOk);
          sink("w1", 2, StatusCode::kAlreadyExists);
        });
      });
  ASSERT_EQ(contents.records.size(), 2u);
  EXPECT_EQ(contents.records[0].kind, AnswerWal::Record::Kind::kDedup);
  EXPECT_EQ(contents.records[0].worker_id, "");
  EXPECT_EQ(contents.records[0].request_id, 7u);
  EXPECT_EQ(contents.records[0].code, StatusCode::kOk);
  EXPECT_EQ(contents.records[1].worker_id, "w1");
  EXPECT_EQ(contents.records[1].code, StatusCode::kAlreadyExists);
}

/// Open(path, nullptr) validates the log and drops the records, the way
/// LogStore::Open accepts a null out-parameter.
TEST(AnswerWalTest, OpenAcceptsNullContents) {
  const std::string path = TempPath("wal_null_contents.log");
  std::remove(path.c_str());
  {
    auto wal = AnswerWal::Open(path, nullptr);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE(wal->AppendAnswer("w0", 1, 2, 0).ok());
  }
  auto wal = AnswerWal::Open(path, nullptr);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(wal->record_count(), 1u);
}

TEST(WorkerQualityRecordTest, FreshRecord) {
  auto record = WorkerQualityRecord::Fresh(3, 0.7);
  EXPECT_EQ(record.quality, (std::vector<double>{0.7, 0.7, 0.7}));
  EXPECT_EQ(record.weight, (std::vector<double>{0.0, 0.0, 0.0}));
}

TEST(WorkerQualityRecordTest, Theorem1WeightedMerge) {
  WorkerQualityRecord stored;
  stored.quality = {0.8, 0.5};
  stored.weight = {4.0, 2.0};
  WorkerQualityRecord fresh;
  fresh.quality = {0.6, 0.9};
  fresh.weight = {1.0, 2.0};
  stored.MergeTheorem1(fresh);
  // (0.8*4 + 0.6*1)/5 = 0.76 ; (0.5*2 + 0.9*2)/4 = 0.7
  EXPECT_NEAR(stored.quality[0], 0.76, 1e-12);
  EXPECT_NEAR(stored.quality[1], 0.7, 1e-12);
  EXPECT_NEAR(stored.weight[0], 5.0, 1e-12);
  EXPECT_NEAR(stored.weight[1], 4.0, 1e-12);
}

TEST(WorkerQualityRecordTest, Theorem1ZeroWeightsTakeFreshQuality) {
  WorkerQualityRecord stored;
  stored.quality = {0.8};
  stored.weight = {0.0};
  WorkerQualityRecord fresh;
  fresh.quality = {0.4};
  fresh.weight = {0.0};
  stored.MergeTheorem1(fresh);
  EXPECT_NEAR(stored.quality[0], 0.4, 1e-12);
  EXPECT_NEAR(stored.weight[0], 0.0, 1e-12);
}

TEST(WorkerStoreTest, InMemoryPutGet) {
  auto store = WorkerStore::InMemory(2);
  WorkerQualityRecord record;
  record.quality = {0.9, 0.6};
  record.weight = {3.0, 1.0};
  ASSERT_TRUE(store.Put("alice", record).ok());
  auto loaded = store.Get("alice");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->quality, record.quality);
  EXPECT_EQ(loaded->weight, record.weight);
}

TEST(WorkerStoreTest, GetUnknownIsNotFound) {
  auto store = WorkerStore::InMemory(2);
  EXPECT_EQ(store.Get("ghost").status().code(), StatusCode::kNotFound);
}

TEST(WorkerStoreTest, ArityMismatchRejected) {
  auto store = WorkerStore::InMemory(2);
  WorkerQualityRecord record;
  record.quality = {0.9};
  record.weight = {3.0};
  EXPECT_FALSE(store.Put("alice", record).ok());
}

TEST(WorkerStoreTest, MergeOnMissingWorkerInserts) {
  auto store = WorkerStore::InMemory(1);
  WorkerQualityRecord record;
  record.quality = {0.9};
  record.weight = {2.0};
  ASSERT_TRUE(store.Merge("bob", record).ok());
  EXPECT_NEAR(store.Get("bob")->quality[0], 0.9, 1e-12);
}

TEST(WorkerStoreTest, MergeAppliesTheorem1) {
  auto store = WorkerStore::InMemory(1);
  WorkerQualityRecord first;
  first.quality = {0.8};
  first.weight = {4.0};
  WorkerQualityRecord second;
  second.quality = {0.6};
  second.weight = {1.0};
  ASSERT_TRUE(store.Put("bob", first).ok());
  ASSERT_TRUE(store.Merge("bob", second).ok());
  EXPECT_NEAR(store.Get("bob")->quality[0], 0.76, 1e-12);
  EXPECT_NEAR(store.Get("bob")->weight[0], 5.0, 1e-12);
}

TEST(WorkerStoreTest, PersistsAcrossReopen) {
  const std::string path = TempPath("persist.log");
  std::remove(path.c_str());
  {
    auto store = WorkerStore::Open(path, 2);
    ASSERT_TRUE(store.ok());
    WorkerQualityRecord record;
    record.quality = {0.9, 0.4};
    record.weight = {2.0, 5.0};
    ASSERT_TRUE(store->Put("alice", record).ok());
    ASSERT_TRUE(store->Flush().ok());
  }
  auto reopened = WorkerStore::Open(path, 2);
  ASSERT_TRUE(reopened.ok());
  auto loaded = reopened->Get("alice");
  ASSERT_TRUE(loaded.ok());
  EXPECT_NEAR(loaded->quality[0], 0.9, 1e-12);
  EXPECT_NEAR(loaded->weight[1], 5.0, 1e-12);
}

TEST(WorkerStoreTest, LastRecordWinsOnReplay) {
  const std::string path = TempPath("lastwins.log");
  std::remove(path.c_str());
  {
    auto store = WorkerStore::Open(path, 1);
    ASSERT_TRUE(store.ok());
    WorkerQualityRecord a;
    a.quality = {0.5};
    a.weight = {1.0};
    WorkerQualityRecord b;
    b.quality = {0.9};
    b.weight = {2.0};
    ASSERT_TRUE(store->Put("w", a).ok());
    ASSERT_TRUE(store->Put("w", b).ok());
    ASSERT_TRUE(store->Flush().ok());
    EXPECT_EQ(store->log_records(), 2u);
  }
  auto reopened = WorkerStore::Open(path, 1);
  ASSERT_TRUE(reopened.ok());
  EXPECT_NEAR(reopened->Get("w")->quality[0], 0.9, 1e-12);
}

TEST(WorkerStoreTest, TornTailIsIgnoredOnRecovery) {
  const std::string path = TempPath("torn.log");
  std::remove(path.c_str());
  {
    auto store = WorkerStore::Open(path, 1);
    ASSERT_TRUE(store.ok());
    WorkerQualityRecord record;
    record.quality = {0.5};
    record.weight = {1.0};
    ASSERT_TRUE(store->Put("w", record).ok());
    ASSERT_TRUE(store->Flush().ok());
  }
  // Simulate a crash mid-append: garbage partial record at the tail.
  {
    std::ofstream out(path, std::ios::app);
    out << "PUT w 1 0.99";  // no weight fields, no checksum, no newline
  }
  auto reopened = WorkerStore::Open(path, 1);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE(reopened->Contains("w"));
  EXPECT_NEAR(reopened->Get("w")->quality[0], 0.5, 1e-12);
}

TEST(WorkerStoreTest, ChecksumMismatchStopsReplay) {
  const std::string path = TempPath("checksum.log");
  std::remove(path.c_str());
  {
    std::ofstream out(path);
    out << "PUT w 1 0.5 1.0 #12345\n";  // wrong checksum
  }
  auto reopened = WorkerStore::Open(path, 1);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE(reopened->Contains("w"));
}

TEST(WorkerStoreTest, CompactShrinksLog) {
  const std::string path = TempPath("compact.log");
  std::remove(path.c_str());
  auto store = WorkerStore::Open(path, 1);
  ASSERT_TRUE(store.ok());
  WorkerQualityRecord record;
  record.quality = {0.5};
  record.weight = {1.0};
  for (int i = 0; i < 10; ++i) {
    record.quality[0] = 0.5 + 0.01 * i;
    ASSERT_TRUE(store->Put("w", record).ok());
  }
  EXPECT_EQ(store->log_records(), 10u);
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_EQ(store->log_records(), 1u);
  EXPECT_NEAR(store->Get("w")->quality[0], 0.59, 1e-12);

  // Store still writable after compaction, and state survives reopen.
  record.quality[0] = 0.77;
  ASSERT_TRUE(store->Put("w", record).ok());
  ASSERT_TRUE(store->Flush().ok());
  auto reopened = WorkerStore::Open(path, 1);
  ASSERT_TRUE(reopened.ok());
  EXPECT_NEAR(reopened->Get("w")->quality[0], 0.77, 1e-12);
}

TEST(WorkerStoreTest, WorkerIdsListsAll) {
  auto store = WorkerStore::InMemory(1);
  WorkerQualityRecord record;
  record.quality = {0.5};
  record.weight = {1.0};
  ASSERT_TRUE(store.Put("a", record).ok());
  ASSERT_TRUE(store.Put("b", record).ok());
  auto ids = store.WorkerIds();
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_EQ(store.size(), 2u);
}

}  // namespace
}  // namespace docs::storage
