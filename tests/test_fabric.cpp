// Serving-fabric tests (DESIGN.md §12): the PHSNAP02 mmap path serves
// bit-identical distances to the PHSNAP01 copy-load, integrity violations
// (truncation, bit flips, misaligned sections) are rejected, the kernel
// enforces the mapping's read-only protection, cold start under
// --verify=off reads zero payload bytes (span-verified), the
// consistent-hash ring moves only the dead replica's keys, the event loop
// outlives handlers that remove themselves, and the front end keeps
// answering reads while a swap builds, acts on one connection's frames in
// the order sent, and acks every dispatched swap before it shuts down.

#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dijkstra/dijkstra.h"
#include "fabric/event_loop.h"
#include "fabric/mapping.h"
#include "fabric/router.h"
#include "fabric/serve_loop.h"
#include "graph/generators.h"
#include "obs/trace.h"
#include "phast/phast.h"
#include "phast/prepare.h"
#include "pq/dary_heap.h"
#include "server/metrics.h"
#include "server/protocol.h"
#include "server/service.h"
#include "server/snapshot.h"
#include "server/snapshot_manager.h"
#include "test_support.h"
#include "util/error.h"
#include "util/rng.h"

namespace phast::fabric {
namespace {

using phast::testing::CachedCountry;
using phast::testing::CachedCountryCH;

constexpr uint32_t kSide = 20;

const Phast& Engine() {
  static const Phast engine(CachedCountryCH(kSide));
  return engine;
}

std::string SnapshotBytes(server::SnapshotFormat format) {
  std::ostringstream out;
  server::WriteSnapshot(
      server::MakeSnapshot(Engine(), &CachedCountry(kSide)), out, format);
  return out.str();
}

/// Writes `bytes` to a fresh temp file and returns its path.
std::string WriteTemp(const std::string& bytes, const std::string& tag) {
  const std::string path = ::testing::TempDir() + "phast_fabric_" + tag +
                           "_" + std::to_string(::getpid()) + ".snap";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  return path;
}

/// The v2 header checksum covers header + TOC with the checksum field
/// zeroed; tests that tamper with the TOC re-derive it so only the
/// tampered property (not the hash) trips the reader.
void RestampHeaderChecksum(std::string& bytes) {
  uint32_t sections = 0;
  std::memcpy(&sections, bytes.data() + 12, sizeof(sections));
  const size_t toc_end = 48 + size_t{sections} * sizeof(server::SnapshotSection);
  uint64_t hash = server::kFnv1a64Seed;
  hash = server::Fnv1a64Continue(hash, bytes.data(), 24);
  const char zeros[8] = {};
  hash = server::Fnv1a64Continue(hash, zeros, sizeof(zeros));
  hash = server::Fnv1a64Continue(hash, bytes.data() + 32, toc_end - 32);
  std::memcpy(bytes.data() + 24, &hash, sizeof(hash));
}

class TempSnapshot {
 public:
  TempSnapshot(const std::string& bytes, const std::string& tag)
      : path_(WriteTemp(bytes, tag)) {}
  ~TempSnapshot() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& Path() const { return path_; }

 private:
  std::string path_;
};

// --- zero-copy fidelity -----------------------------------------------------

TEST(Mapping, V2ViewServesBitIdenticalDistancesToV1CopyLoad) {
  const TempSnapshot v2(SnapshotBytes(server::SnapshotFormat::kPhsnap02),
                        "fidelity");
  const MappedSnapshot mapped(v2.Path(), VerifyMode::kSections);
  ASSERT_TRUE(mapped.IsZeroCopy());
  const Phast view_engine(mapped.LayoutView(), mapped.Validation());

  std::istringstream v1(SnapshotBytes(server::SnapshotFormat::kPhsnap01));
  server::Snapshot copy_loaded = server::ReadSnapshot(v1);
  const Phast copy_engine(std::move(copy_loaded.layout));

  ASSERT_EQ(view_engine.NumVertices(), copy_engine.NumVertices());
  Phast::Workspace ws_a = view_engine.MakeWorkspace();
  Phast::Workspace ws_b = copy_engine.MakeWorkspace();
  Rng rng(11);
  const Graph& graph = CachedCountry(kSide);
  for (int trial = 0; trial < 5; ++trial) {
    const VertexId source =
        static_cast<VertexId>(rng.NextBounded(view_engine.NumVertices()));
    view_engine.ComputeTree(source, ws_a);
    copy_engine.ComputeTree(source, ws_b);
    const SsspResult ref = Dijkstra<BinaryHeap>(graph, source);
    for (VertexId v = 0; v < view_engine.NumVertices(); ++v) {
      ASSERT_EQ(view_engine.Distance(ws_a, v), copy_engine.Distance(ws_b, v))
          << "source " << source << " vertex " << v;
      ASSERT_EQ(view_engine.Distance(ws_a, v), ref.dist[v]);
    }
  }
}

TEST(Mapping, V1MapsButIsNotZeroCopy) {
  const TempSnapshot v1(SnapshotBytes(server::SnapshotFormat::kPhsnap01),
                        "v1fallback");
  const MappedSnapshot mapped(v1.Path(), VerifyMode::kFull);
  EXPECT_FALSE(mapped.IsZeroCopy());
  EXPECT_THROW((void)mapped.LayoutView(), InputError);
  // The copy-decode fallback still works straight out of the mapping.
  const server::Snapshot snapshot = mapped.CopyDecode();
  EXPECT_EQ(snapshot.layout.num_vertices, Engine().NumVertices());
}

// --- integrity rejection ----------------------------------------------------

TEST(Mapping, TruncatedFileIsRejectedInEveryVerifyMode) {
  const std::string bytes = SnapshotBytes(server::SnapshotFormat::kPhsnap02);
  const TempSnapshot cut(bytes.substr(0, bytes.size() - 1), "truncated");
  for (const VerifyMode mode :
       {VerifyMode::kFull, VerifyMode::kSections, VerifyMode::kOff}) {
    EXPECT_THROW((void)MappedSnapshot(cut.Path(), mode), InputError);
  }
}

TEST(Mapping, HeaderBitFlipIsRejectedEvenUnderVerifyOff) {
  std::string bytes = SnapshotBytes(server::SnapshotFormat::kPhsnap02);
  bytes[50] ^= 0x01;  // inside the first TOC entry
  const TempSnapshot bad(bytes, "tocflip");
  // The header/TOC hash is O(TOC) and unconditionally verified — structure
  // is authenticated even in the instant-start mode.
  EXPECT_THROW((void)MappedSnapshot(bad.Path(), VerifyMode::kOff),
               InputError);
}

TEST(Mapping, PayloadBitFlipIsCaughtByCheckingModesAndDeferredByOff) {
  std::string bytes = SnapshotBytes(server::SnapshotFormat::kPhsnap02);
  // Flip one bit in the PERM payload (first page-aligned section).
  const server::SnapshotImage clean(bytes.data(), bytes.size(),
                                    server::SnapshotVerify::kOff);
  const server::SnapshotSection perm = clean.Section(server::kSecPerm);
  bytes[perm.offset + perm.size / 2] ^= 0x40;
  const TempSnapshot bad(bytes, "payloadflip");

  EXPECT_THROW((void)MappedSnapshot(bad.Path(), VerifyMode::kFull),
               InputError);
  EXPECT_THROW((void)MappedSnapshot(bad.Path(), VerifyMode::kSections),
               InputError);
  // kOff opens (no payload byte is read)…
  const MappedSnapshot lazy(bad.Path(), VerifyMode::kOff);
  // …and the lazy per-section primitive still localizes the damage.
  EXPECT_FALSE(lazy.Image().SectionChecksumOk(
      lazy.Image().Section(server::kSecPerm)));
  EXPECT_TRUE(lazy.Image().SectionChecksumOk(
      lazy.Image().Section(server::kSecMeta)));
}

TEST(Mapping, MisalignedSectionIsRejected) {
  std::string bytes = SnapshotBytes(server::SnapshotFormat::kPhsnap02);
  // Nudge the PERM section off its page boundary (keeping it in bounds)
  // and restamp the header hash so alignment is the only violation.
  const server::SnapshotImage clean(bytes.data(), bytes.size(),
                                    server::SnapshotVerify::kOff);
  for (size_t i = 0; i < clean.Sections().size(); ++i) {
    if (clean.Sections()[i].id != server::kSecPerm) continue;
    const size_t entry = 48 + i * sizeof(server::SnapshotSection);
    uint64_t offset = 0;
    std::memcpy(&offset, bytes.data() + entry + 8, sizeof(offset));
    offset += 4;
    std::memcpy(bytes.data() + entry + 8, &offset, sizeof(offset));
  }
  RestampHeaderChecksum(bytes);
  const TempSnapshot bad(bytes, "misaligned");
  EXPECT_THROW((void)MappedSnapshot(bad.Path(), VerifyMode::kOff),
               InputError);
}

// --- read-only enforcement --------------------------------------------------

TEST(MappingDeathTest, WritingThroughTheViewFaults) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const TempSnapshot v2(SnapshotBytes(server::SnapshotFormat::kPhsnap02),
                        "readonly");
  const MappedSnapshot mapped(v2.Path(), VerifyMode::kOff);
  const PhastLayoutView view = mapped.LayoutView();
  ASSERT_FALSE(view.perm.empty());
  // PROT_READ means engine immutability is a kernel guarantee, not a
  // convention: the write must die, not corrupt a shared page.
  EXPECT_DEATH(
      { const_cast<VertexId*>(view.perm.data())[0] = 1; }, "");
}

// --- cold start reads no payload --------------------------------------------

TEST(Mapping, ColdStartUnderVerifyOffHashesZeroPayloadBytes) {
  const TempSnapshot v2(SnapshotBytes(server::SnapshotFormat::kPhsnap02),
                        "coldstart");
  obs::ClearSpans();
  obs::EnableTracing(true);
  const MappedSnapshot mapped(v2.Path(), VerifyMode::kOff);
  obs::EnableTracing(false);

  EXPECT_EQ(mapped.PayloadBytesVerified(), 0u);
  // The span stream is the externally visible witness (phast_serve's
  // --trace-out shows the same record): a fabric.map span with arg 0.
  bool found = false;
  for (const obs::SpanRecord& span : obs::CollectSpans()) {
    if (std::strcmp(span.name, "fabric.map") == 0) {
      found = true;
      EXPECT_EQ(span.arg, 0u);
    }
  }
  EXPECT_TRUE(found) << "no fabric.map span recorded";

  // Shallow validation builds a serving engine without touching array
  // content either; the answers are still right.
  const Phast engine(mapped.LayoutView(), mapped.Validation());
  Phast::Workspace ws = engine.MakeWorkspace();
  engine.ComputeTree(0, ws);
  const SsspResult ref = Dijkstra<BinaryHeap>(CachedCountry(kSide), 0);
  for (VertexId v = 0; v < engine.NumVertices(); ++v) {
    ASSERT_EQ(engine.Distance(ws, v), ref.dist[v]);
  }
}

TEST(Mapping, CheckingModesReportVerifiedPayloadBytes) {
  const TempSnapshot v2(SnapshotBytes(server::SnapshotFormat::kPhsnap02),
                        "verifiedbytes");
  const MappedSnapshot sections(v2.Path(), VerifyMode::kSections);
  uint64_t payload_total = 0;
  for (const server::SnapshotSection& s : sections.Image().Sections()) {
    payload_total += s.size;
  }
  EXPECT_EQ(sections.PayloadBytesVerified(), payload_total);
  EXPECT_GT(payload_total, 0u);
}

// --- atomic publish ---------------------------------------------------------

/// Distances of a few trees, concatenated (a fingerprint of what an engine
/// answers).
std::vector<Weight> TreeFingerprint(const Phast& engine) {
  Phast::Workspace ws = engine.MakeWorkspace();
  std::vector<Weight> out;
  for (const VertexId source : {VertexId{0}, VertexId{7}, VertexId{42}}) {
    engine.ComputeTree(source, ws);
    for (VertexId v = 0; v < engine.NumVertices(); ++v) {
      out.push_back(engine.Distance(ws, v));
    }
  }
  return out;
}

// Re-running the prepare step onto a path that replicas have mapped: the
// writer publishes a new file instead of truncating the mapped one, so the
// old mapping keeps serving its own bytes (in place, a shorter file would
// raise SIGBUS and a longer one would change its answers) and the next open
// sees the new snapshot.
TEST(Mapping, RewritingAMappedSnapshotLeavesTheMappingIntact) {
  const std::string path = ::testing::TempDir() + "phast_fabric_rewrite_" +
                           std::to_string(::getpid()) + ".snap";
  server::WriteSnapshotFile(server::MakeSnapshot(Engine(), &CachedCountry(kSide)),
                            path, server::SnapshotFormat::kPhsnap02);
  const MappedSnapshot old_mapping(path, VerifyMode::kSections);
  const Phast old_engine(old_mapping.LayoutView(), old_mapping.Validation());
  const std::vector<Weight> before = TreeFingerprint(old_engine);

  const Phast other(CachedCountryCH(kSide / 2, 3));
  server::WriteSnapshotFile(server::MakeSnapshot(other, &CachedCountry(kSide / 2, 3)),
                            path, server::SnapshotFormat::kPhsnap02);

  EXPECT_EQ(TreeFingerprint(old_engine), before);
  const MappedSnapshot new_mapping(path, VerifyMode::kFull);
  const Phast new_engine(new_mapping.LayoutView(), new_mapping.Validation());
  EXPECT_EQ(new_engine.NumVertices(), other.NumVertices());
  EXPECT_EQ(TreeFingerprint(new_engine), TreeFingerprint(other));
  EXPECT_NE(TreeFingerprint(new_engine), before);
  std::remove(path.c_str());
}

// --- consistent-hash ring ---------------------------------------------------

TEST(HashRing, PickIsDeterministicAndInRange) {
  const ConsistentHashRing ring(4);
  for (uint64_t key = 0; key < 1000; ++key) {
    const size_t a = ring.Pick(key);
    EXPECT_LT(a, 4u);
    EXPECT_EQ(a, ring.Pick(key));
  }
}

TEST(HashRing, EveryReplicaOwnsSomeKeys) {
  const ConsistentHashRing ring(4);
  std::set<size_t> owners;
  for (uint64_t key = 0; key < 4096; ++key) owners.insert(ring.Pick(key));
  EXPECT_EQ(owners.size(), 4u);
}

TEST(HashRing, DeathMovesOnlyTheDeadReplicasKeys) {
  ConsistentHashRing ring(4);
  std::vector<size_t> before;
  for (uint64_t key = 0; key < 4096; ++key) before.push_back(ring.Pick(key));
  ring.SetAlive(2, false);
  for (uint64_t key = 0; key < 4096; ++key) {
    const size_t now = ring.Pick(key);
    EXPECT_NE(now, 2u);
    if (before[key] != 2) {
      // The cache-locality contract: survivors keep their working sets.
      EXPECT_EQ(now, before[key]) << "key " << key;
    }
  }
  ring.SetAlive(2, true);
  for (uint64_t key = 0; key < 4096; ++key) {
    EXPECT_EQ(ring.Pick(key), before[key]) << "key " << key;
  }
}

TEST(HashRing, PickExcludingAvoidsTheOwner) {
  const ConsistentHashRing ring(3);
  for (uint64_t key = 0; key < 512; ++key) {
    const size_t owner = ring.Pick(key);
    const size_t fallback = ring.PickExcluding(key, owner);
    EXPECT_NE(fallback, owner);
    EXPECT_LT(fallback, 3u);
  }
}

TEST(HashRing, NoAliveReplicaThrows) {
  ConsistentHashRing ring(2);
  ring.SetAlive(0, false);
  ring.SetAlive(1, false);
  EXPECT_EQ(ring.NumAlive(), 0u);
  EXPECT_THROW((void)ring.Pick(7), InputError);
  ring.SetAlive(0, true);
  EXPECT_THROW((void)ring.PickExcluding(7, 0), InputError);
  EXPECT_EQ(ring.Pick(7), 0u);
}

// --- matrix row partitioning and merge --------------------------------------

TEST(MatrixPartition, EveryRowAppearsExactlyOnceOnItsOwner) {
  const ConsistentHashRing ring(3);
  Rng rng(41);
  std::vector<uint32_t> sources;
  for (int i = 0; i < 40; ++i) {
    sources.push_back(rng.NextBounded(500));
  }
  sources.push_back(sources.front());  // duplicate source, two rows

  const std::vector<MatrixPartition> partitions =
      PartitionMatrixSources(ring, sources);
  std::vector<int> seen(sources.size(), 0);
  std::set<size_t> replicas;
  for (const MatrixPartition& p : partitions) {
    EXPECT_TRUE(replicas.insert(p.replica).second)
        << "replica " << p.replica << " owns two partitions";
    EXPECT_FALSE(p.rows.empty());
    EXPECT_TRUE(std::is_sorted(p.rows.begin(), p.rows.end()));
    for (const uint32_t row : p.rows) {
      ASSERT_LT(row, sources.size());
      ++seen[row];
      // Row placement is exactly the ring's single-query routing, so a
      // matrix row and a kQuery for the same source hit the same cache.
      EXPECT_EQ(p.replica, ring.Pick(sources[row])) << "row " << row;
    }
  }
  for (size_t row = 0; row < sources.size(); ++row) {
    EXPECT_EQ(seen[row], 1) << "row " << row;
  }
}

TEST(MatrixPartition, SingleReplicaGetsOnePartitionInRowOrder) {
  const ConsistentHashRing ring(1);
  const std::vector<uint32_t> sources = {9, 3, 9, 7};
  const std::vector<MatrixPartition> partitions =
      PartitionMatrixSources(ring, sources);
  ASSERT_EQ(partitions.size(), 1u);
  EXPECT_EQ(partitions[0].replica, 0u);
  EXPECT_EQ(partitions[0].rows, (std::vector<uint32_t>{0, 1, 2, 3}));
}

TEST(MatrixPartition, MergeScattersSubTablesIntoClientRowOrder) {
  // 4 x 2 client table assembled from two sub-tables with interleaved rows.
  const size_t cols = 2;
  std::vector<uint32_t> table(4 * cols, 0);
  MergeMatrixRows({0, 2}, cols, {10, 11, 30, 31}, table);
  MergeMatrixRows({3, 1}, cols, {40, 41, 20, 21}, table);
  EXPECT_EQ(table,
            (std::vector<uint32_t>{10, 11, 20, 21, 30, 31, 40, 41}));
}

TEST(MatrixPartition, MergeRejectsMismatchedSubTableOrOverflow) {
  std::vector<uint32_t> table(4, 0);
  std::vector<uint32_t> sub = {1, 2};
  EXPECT_THROW(MergeMatrixRows({0, 1}, 2, sub, table), InputError);
  EXPECT_THROW(MergeMatrixRows({2}, 2, sub, table), InputError);  // past end
  MergeMatrixRows({1}, 2, sub, table);  // last row fits exactly
  EXPECT_EQ(table, (std::vector<uint32_t>{0, 0, 1, 2}));
}

TEST(MatrixPartition, PartitionRoundTripsThroughMerge) {
  // Partition, compute each sub-table from a reference function, merge, and
  // require the merged table to equal the direct computation.
  const ConsistentHashRing ring(4);
  Rng rng(53);
  std::vector<uint32_t> sources;
  for (int i = 0; i < 23; ++i) sources.push_back(rng.NextBounded(100));
  const size_t cols = 3;
  const auto cell = [](uint32_t source, size_t j) {
    return source * 10 + static_cast<uint32_t>(j);
  };

  std::vector<uint32_t> merged(sources.size() * cols, 0xdead);
  for (const MatrixPartition& p : PartitionMatrixSources(ring, sources)) {
    std::vector<uint32_t> sub;
    for (const uint32_t row : p.rows) {
      for (size_t j = 0; j < cols; ++j) sub.push_back(cell(sources[row], j));
    }
    MergeMatrixRows(p.rows, cols, sub, merged);
  }
  for (size_t row = 0; row < sources.size(); ++row) {
    for (size_t j = 0; j < cols; ++j) {
      EXPECT_EQ(merged[row * cols + j], cell(sources[row], j));
    }
  }
}

// --- event loop and front end ----------------------------------------------

TEST(EventLoop, HandlerThatRemovesItselfKeepsItsCaptureUntilItReturns) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
  EventLoop loop;
  // The router's client handlers close their own connection and then call
  // back through their capture; this one removes its fd, then reads a
  // capture that lives in the handler's own storage.
  const std::string tag(100, 'x');
  size_t seen = 0;
  loop.Add(fds[0], EPOLLIN, [&loop, &seen, fd = fds[0], tag](uint32_t) {
    loop.Remove(fd);
    seen = static_cast<size_t>(std::count(tag.begin(), tag.end(), 'x'));
    loop.Stop();
  });
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  loop.Run();
  EXPECT_EQ(seen, tag.size());
  ::close(fds[0]);
  ::close(fds[1]);
}

/// A witness-free 48x48 country: customizing it takes far longer than
/// answering one read, so frames sent right after a kSwap land mid-build.
const PreparedNetwork& CustomizableCountry() {
  static const PreparedNetwork prepared = [] {
    CountryParams params;
    params.width = 48;
    params.height = 48;
    params.seed = 1;
    PrepareOptions prepare;
    prepare.ch_params.witness_pruning = false;
    return PrepareNetwork(GenerateCountry(params).edges, prepare);
  }();
  return prepared;
}

server::ServiceOptions OneWorker() {
  server::ServiceOptions options;
  options.num_workers = 1;
  return options;
}

/// RunFrontEnd over CustomizableCountry() on its own thread, with one
/// customization thread per swap.
class SwapServer {
 public:
  explicit SwapServer(const std::string& tag)
      : manager_(Phast(CustomizableCountry().ch), CustomizableCountry().graph,
                 CustomizableCountry().ch, metrics_),
        service_(manager_, OneWorker(), metrics_),
        path_(::testing::TempDir() + "phast_fabric_" + tag + "_" +
              std::to_string(::getpid()) + ".sock") {
    ::unlink(path_.c_str());
    listen_fd_ = server::ListenUnix(path_);
    FrontEndOptions options;
    options.conn.manager = &manager_;
    options.conn.customize_threads = 1;
    serve_ = std::thread([this, options] {
      got_shutdown_ =
          RunFrontEnd(listen_fd_, service_, metrics_, options, nullptr);
    });
  }
  SwapServer(const SwapServer&) = delete;
  SwapServer& operator=(const SwapServer&) = delete;
  ~SwapServer() {
    if (serve_.joinable()) {  // a test bailed out before its shutdown
      try {
        server::Client(Connect()).Shutdown();
      } catch (const std::exception&) {
        // Not delivered: if the front end still runs, the join below
        // hangs and the test times out rather than passing.
      }
      serve_.join();
    }
    ::close(listen_fd_);
    ::unlink(path_.c_str());
  }

  [[nodiscard]] int Connect() const { return server::ConnectUnix(path_); }
  [[nodiscard]] server::SnapshotManager& Manager() { return manager_; }
  /// Waits for the front end to return; true if it saw kShutdown.
  bool Join() {
    serve_.join();
    return got_shutdown_;
  }

 private:
  server::MetricsRegistry metrics_;
  server::SnapshotManager manager_;
  server::OracleService service_;
  std::string path_;
  int listen_fd_ = -1;
  bool got_shutdown_ = false;
  std::thread serve_;
};

TEST(FrontEnd, ReadOnAnotherConnectionIsAnsweredWhileASwapBuilds) {
  SwapServer server("swap_read");
  server::Client swapper(server.Connect());
  server::Client reader(server.Connect());
  std::atomic<bool> swapped{false};
  uint64_t new_epoch = 0;
  std::thread swap([&] {
    new_epoch = swapper.TriggerSwap();
    swapped.store(true);
  });
  // Let the loop dispatch the kSwap frame before the read arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server::Request read;
  read.source = 0;
  read.targets = {1, 2, 3};
  const server::Response during = reader.Call(read);
  const bool answered_mid_build = !swapped.load();
  swap.join();

  EXPECT_EQ(during.status, server::ResponseStatus::kOk);
  EXPECT_EQ(during.epoch, 1u) << "the read waited for the swap";
  EXPECT_TRUE(answered_mid_build) << "the read waited for the swap";
  EXPECT_EQ(new_epoch, 2u);
  EXPECT_EQ(reader.Call(read).epoch, 2u);

  reader.Shutdown();
  EXPECT_TRUE(server.Join());
}

TEST(FrontEnd, ControlFramesPipelinedBehindASwapActAfterIt) {
  // Replicas fed one control stream must agree, so a connection's frames
  // act in the order sent even while its swap builds off the loop.
  SwapServer server("swap_pipeline");
  const int fd = server.Connect();
  server::Client client(fd);  // owns fd; used for the shutdown below
  const Graph& graph = CustomizableCountry().graph;
  const Arc& arc = graph.ArcsOf(0).front();
  const std::vector<server::WeightUpdate> update = {
      {0, arc.other, arc.weight * 2}};
  server::WriteFrame(fd, server::EncodeControl(server::MessageType::kSwap, 1));
  server::WriteFrame(fd, server::EncodeWeightUpdates(2, update));
  server::WriteFrame(fd,
                     server::EncodeControl(server::MessageType::kEpoch, 3));

  std::vector<uint8_t> reply;
  const auto next_value = [&](server::MessageType type, uint64_t id) {
    EXPECT_TRUE(server::ReadFrame(fd, reply));
    EXPECT_EQ(server::PeekId(reply), id);
    return server::DecodeValueReply(type, reply);
  };
  EXPECT_EQ(next_value(server::MessageType::kSwap, 1), 2u);
  EXPECT_EQ(next_value(server::MessageType::kUpdateWeights, 2), 1u);
  EXPECT_EQ(next_value(server::MessageType::kEpoch, 3), 2u)
      << "kEpoch was answered before the swap ahead of it published";
  EXPECT_EQ(server.Manager().PendingUpdates(), 1u)
      << "an update sent after the kSwap was merged into its epoch";

  client.Shutdown();
  EXPECT_TRUE(server.Join());
}

TEST(FrontEnd, ShutdownWaitsForASwapDispatchedOnAnotherConnection) {
  SwapServer server("swap_shutdown");
  server::Client swapper(server.Connect());
  server::Client stopper(server.Connect());
  uint64_t new_epoch = 0;
  std::thread swap([&] {
    try {
      new_epoch = swapper.TriggerSwap();
    } catch (const std::exception&) {
      // The server closed the connection without the ack; checked below.
    }
  });
  // Let the loop dispatch the kSwap frame before the shutdown arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stopper.Shutdown();
  swap.join();
  EXPECT_EQ(new_epoch, 2u) << "the server stopped before acking the swap";
  EXPECT_TRUE(server.Join());
}

}  // namespace
}  // namespace phast::fabric
