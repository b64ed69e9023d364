// Randomized property tests against reference models, parameterized over
// seeds: the cell accessor vs a plain struct, the memory cloud under
// continuous crash/recovery churn vs a std::map, the fabric's delivery
// guarantees under random flushing, and the byte decoders (adjacency codec,
// packed message records, table, versioned-cell and trunk images) against
// garbage.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "cloud/addressing_table.h"
#include "cloud/memory_cloud.h"
#include "common/random.h"
#include "common/serializer.h"
#include "compute/packed_messages.h"
#include "graph/graph.h"
#include "net/fabric.h"
#include "storage/cell_codec.h"
#include "storage/memory_trunk.h"
#include "tfs/tfs.h"
#include "tsl/cell_accessor.h"
#include "txn/txn.h"

namespace trinity {
namespace {

// ------------------------------------------------------ Accessor vs model

constexpr const char* kFuzzSchema = R"(
  cell struct Fuzzed {
    long A;
    string S;
    List<long> L;
    double D;
    string T;
  }
)";

struct ReferenceCell {
  std::int64_t a = 0;
  std::string s;
  std::vector<std::int64_t> l;
  double d = 0;
  std::string t;
};

class AccessorFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AccessorFuzzTest, MatchesReferenceModel) {
  tsl::SchemaRegistry registry;
  ASSERT_TRUE(tsl::SchemaRegistry::Compile(kFuzzSchema, &registry).ok());
  const tsl::Schema* schema = registry.struct_schema("Fuzzed");
  tsl::CellAccessor cell = tsl::CellAccessor::NewDefault(schema);
  ReferenceCell ref;
  Random rng(GetParam());
  auto random_string = [&] {
    return std::string(rng.Uniform(40), static_cast<char>('a' + rng.Uniform(26)));
  };
  for (int op = 0; op < 5000; ++op) {
    switch (rng.Uniform(10)) {
      case 0: {
        const std::int64_t v = static_cast<std::int64_t>(rng.Next());
        ASSERT_TRUE(cell.SetInt64(0, v).ok());
        ref.a = v;
        break;
      }
      case 1: {
        const std::string v = random_string();
        ASSERT_TRUE(cell.SetString(1, Slice(v)).ok());
        ref.s = v;
        break;
      }
      case 2: {
        const std::int64_t v = static_cast<std::int64_t>(rng.Next());
        ASSERT_TRUE(cell.AppendListInt64(2, v).ok());
        ref.l.push_back(v);
        break;
      }
      case 3: {
        if (ref.l.empty()) break;
        const std::size_t i = rng.Uniform(ref.l.size());
        const std::int64_t v = static_cast<std::int64_t>(rng.Next());
        ASSERT_TRUE(cell.SetListInt64(2, i, v).ok());
        ref.l[i] = v;
        break;
      }
      case 4: {
        if (ref.l.empty()) break;
        const std::size_t i = rng.Uniform(ref.l.size());
        ASSERT_TRUE(cell.RemoveListElement(2, i).ok());
        ref.l.erase(ref.l.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      case 5: {
        const double v = rng.NextDouble();
        ASSERT_TRUE(cell.SetDouble(3, v).ok());
        ref.d = v;
        break;
      }
      case 6: {
        const std::string v = random_string();
        ASSERT_TRUE(cell.SetString(4, Slice(v)).ok());
        ref.t = v;
        break;
      }
      default: {
        // Verify one randomly chosen facet.
        switch (rng.Uniform(5)) {
          case 0: {
            std::int64_t v = 0;
            ASSERT_TRUE(cell.GetInt64(0, &v).ok());
            ASSERT_EQ(v, ref.a);
            break;
          }
          case 1: {
            std::string v;
            ASSERT_TRUE(cell.GetString(1, &v).ok());
            ASSERT_EQ(v, ref.s);
            break;
          }
          case 2: {
            std::size_t n = 0;
            ASSERT_TRUE(cell.ListSize(2, &n).ok());
            ASSERT_EQ(n, ref.l.size());
            if (n > 0) {
              const std::size_t i = rng.Uniform(n);
              std::int64_t v = 0;
              ASSERT_TRUE(cell.GetListInt64(2, i, &v).ok());
              ASSERT_EQ(v, ref.l[i]);
            }
            break;
          }
          case 3: {
            double v = 0;
            ASSERT_TRUE(cell.GetDouble(3, &v).ok());
            ASSERT_EQ(v, ref.d);
            break;
          }
          case 4: {
            std::string v;
            ASSERT_TRUE(cell.GetString(4, &v).ok());
            ASSERT_EQ(v, ref.t);
            break;
          }
        }
      }
    }
    // The blob must stay schema-valid after every mutation.
    if (op % 500 == 0) {
      ASSERT_TRUE(tsl::ValidateBlob(schema, Slice(cell.blob())).ok());
    }
  }
  ASSERT_TRUE(tsl::ValidateBlob(schema, Slice(cell.blob())).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccessorFuzzTest,
                         ::testing::Values(101, 202, 303, 404));

// -------------------------------------------- Cloud under recovery churn

class CloudChurnFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CloudChurnFuzzTest, NoOpIsLostAcrossCrashes) {
  const std::string root =
      ::testing::TempDir() + "/churn_" + std::to_string(GetParam());
  std::filesystem::remove_all(root);
  tfs::Tfs::Options tfs_options;
  tfs_options.root = root;
  std::unique_ptr<tfs::Tfs> tfs;
  ASSERT_TRUE(tfs::Tfs::Open(tfs_options, &tfs).ok());
  cloud::MemoryCloud::Options options;
  options.num_slaves = 4;
  options.p_bits = 4;
  options.storage.trunk.capacity = 1 << 20;
  options.tfs = tfs.get();
  options.buffered_logging = true;
  std::unique_ptr<cloud::MemoryCloud> cloud;
  ASSERT_TRUE(cloud::MemoryCloud::Create(options, &cloud).ok());

  Random rng(GetParam());
  std::map<CellId, std::string> reference;
  ASSERT_TRUE(cloud->SaveSnapshot().ok());
  int crashes = 0;
  for (int op = 0; op < 1500; ++op) {
    const CellId id = rng.Uniform(128);
    switch (rng.Uniform(6)) {
      case 0: {
        const std::string payload(rng.Uniform(60), 'a' + id % 26);
        if (cloud->AddCell(id, Slice(payload)).ok()) {
          ASSERT_EQ(reference.count(id), 0u);
          reference[id] = payload;
        } else {
          ASSERT_EQ(reference.count(id), 1u);
        }
        break;
      }
      case 1: {
        const std::string payload(rng.Uniform(60), 'A' + id % 26);
        ASSERT_TRUE(cloud->PutCell(id, Slice(payload)).ok());
        reference[id] = payload;
        break;
      }
      case 2: {
        const Status s = cloud->RemoveCell(id);
        ASSERT_EQ(s.ok(), reference.erase(id) > 0);
        break;
      }
      case 3: {
        const std::string suffix(1 + rng.Uniform(20), 'z');
        const Status s = cloud->AppendToCell(id, Slice(suffix));
        auto it = reference.find(id);
        if (it == reference.end()) {
          ASSERT_TRUE(s.IsNotFound());
        } else {
          ASSERT_TRUE(s.ok());
          it->second += suffix;
        }
        break;
      }
      case 4: {
        std::string out;
        const Status s = cloud->GetCell(id, &out);
        auto it = reference.find(id);
        if (it == reference.end()) {
          ASSERT_TRUE(s.IsNotFound());
        } else {
          ASSERT_TRUE(s.ok());
          ASSERT_EQ(out, it->second) << "cell " << id << " after " << crashes
                                     << " crashes";
        }
        break;
      }
      case 5: {
        if (op % 97 != 0) break;
        // Periodic disaster: snapshot sometimes, then crash one machine
        // and recover (post-snapshot ops must come back via the logs).
        if (rng.Bernoulli(0.5)) {
          ASSERT_TRUE(cloud->SaveSnapshot().ok());
        }
        const MachineId victim =
            static_cast<MachineId>(rng.Uniform(4));
        ASSERT_TRUE(cloud->FailMachine(victim).ok());
        ASSERT_TRUE(cloud->RecoverMachine(victim).ok());
        ASSERT_TRUE(cloud->RestartMachine(victim).ok());
        ++crashes;
        break;
      }
    }
  }
  ASSERT_GT(crashes, 0);
  // Full final audit.
  for (const auto& [id, expected] : reference) {
    std::string out;
    ASSERT_TRUE(cloud->GetCell(id, &out).ok()) << "cell " << id;
    ASSERT_EQ(out, expected) << "cell " << id;
  }
  for (CellId id = 0; id < 128; ++id) {
    if (reference.count(id) == 0) {
      bool exists = false;
      ASSERT_TRUE(cloud->Contains(id, &exists).ok());
      ASSERT_FALSE(exists) << "ghost cell " << id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CloudChurnFuzzTest,
                         ::testing::Values(7, 17, 27));

// ------------------------------------------------- Fabric delivery fuzz

class FabricFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FabricFuzzTest, EveryMessageDeliveredOncePerPairInOrder) {
  const int kMachines = 5;
  net::Fabric fabric(kMachines);
  // received[src][dst] = sequence numbers in arrival order.
  std::vector<std::vector<std::vector<std::uint64_t>>> received(
      kMachines, std::vector<std::vector<std::uint64_t>>(kMachines));
  for (MachineId m = 0; m < kMachines; ++m) {
    fabric.RegisterAsyncHandler(
        m, 7, [m, &received](MachineId src, Slice payload) {
          std::uint64_t seq = 0;
          std::memcpy(&seq, payload.data(), 8);
          received[src][m].push_back(seq);
        });
  }
  Random rng(GetParam());
  std::vector<std::vector<std::uint64_t>> sent(
      kMachines, std::vector<std::uint64_t>(kMachines, 0));
  std::uint64_t next_seq = 1;
  for (int op = 0; op < 20000; ++op) {
    const MachineId src = static_cast<MachineId>(rng.Uniform(kMachines));
    const MachineId dst = static_cast<MachineId>(rng.Uniform(kMachines));
    if (rng.Uniform(50) == 0) {
      fabric.Flush(src);
      continue;
    }
    const std::uint64_t seq = next_seq++;
    char raw[8];
    std::memcpy(raw, &seq, 8);
    ASSERT_TRUE(fabric.SendAsync(src, dst, 7, Slice(raw, 8)).ok());
    ++sent[src][dst];
  }
  fabric.FlushAll();
  for (int src = 0; src < kMachines; ++src) {
    for (int dst = 0; dst < kMachines; ++dst) {
      ASSERT_EQ(received[src][dst].size(), sent[src][dst])
          << src << "->" << dst;
      // Per-pair FIFO: sequence numbers must arrive in increasing order.
      for (std::size_t i = 1; i < received[src][dst].size(); ++i) {
        ASSERT_LT(received[src][dst][i - 1], received[src][dst][i]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricFuzzTest, ::testing::Values(1, 2, 3));

// -------------------------------------------------- Adjacency codec fuzz

class CellCodecFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

// Random node cells must round-trip bit-identically whenever the codec
// accepts them, and decoding corrupt or truncated bytes must never read out
// of bounds — it returns Corruption (the trunk surfaces it), or, for a
// lucky mutation that stays well-formed, some equally well-formed payload.
TEST_P(CellCodecFuzzTest, RoundTripsAndNeverCrashesOnGarbage) {
  Random rng(GetParam());
  for (int iter = 0; iter < 2000; ++iter) {
    graph::NodeImage node;
    node.id = rng.Uniform(1000);
    node.data = std::string(rng.Uniform(32), 'd');
    const std::uint64_t in_count = rng.Uniform(40);
    const std::uint64_t out_count = rng.Uniform(40);
    // Mostly-sorted lists with occasional inversions, duplicates, and huge
    // gaps, so both the accept and the reject paths run.
    CellId prev = 0;
    for (std::uint64_t k = 0; k < in_count; ++k) {
      prev = rng.Bernoulli(0.05) ? rng.Next()
                                 : prev + rng.Uniform(1u << 16);
      node.in.push_back(prev);
    }
    prev = 0;
    for (std::uint64_t k = 0; k < out_count; ++k) {
      prev = rng.Bernoulli(0.05) ? rng.Next()
                                 : prev + rng.Uniform(1u << 16);
      node.out.push_back(prev);
    }
    const std::string raw = graph::Graph::EncodeNode(node);
    std::string enc;
    if (!storage::CellCodec::EncodeAdjacency(Slice(raw), &enc)) continue;
    std::string dec;
    ASSERT_TRUE(storage::CellCodec::DecodeAdjacency(Slice(enc), &dec).ok());
    ASSERT_EQ(dec, raw);
    std::uint64_t size = 0;
    ASSERT_TRUE(storage::CellCodec::DecodedSize(Slice(enc), &size).ok());
    ASSERT_EQ(size, raw.size());

    // Truncate at a random point.
    std::string cut = enc.substr(0, rng.Uniform(enc.size()));
    (void)storage::CellCodec::DecodeAdjacency(Slice(cut), &dec);
    // Flip random bytes. Decode either rejects the mutation or produces a
    // payload of exactly the size its header varint promised.
    std::string mutated = enc;
    for (int flips = 1 + static_cast<int>(rng.Uniform(4)); flips > 0;
         --flips) {
      mutated[rng.Uniform(mutated.size())] =
          static_cast<char>(rng.Uniform(256));
    }
    if (storage::CellCodec::DecodeAdjacency(Slice(mutated), &dec).ok()) {
      ASSERT_TRUE(
          storage::CellCodec::DecodedSize(Slice(mutated), &size).ok());
      ASSERT_EQ(dec.size(), size);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CellCodecFuzzTest,
                         ::testing::Values(5, 55, 555));

// ------------------------------------------------ Decoder mutation sweep

// What every decoder fuzz case feeds its decoder besides a valid image: the
// image cut at a random point (possibly not at all), the image with 1-4
// flipped bits, and random garbage of fewer than max_garbage bytes.
struct Mutants {
  std::string cut;
  std::string flipped;
  std::string garbage;
};

Mutants Mutate(Random& rng, const std::string& image,
               std::size_t max_garbage) {
  Mutants m;
  m.cut = image.substr(0, rng.Uniform(image.size() + 1));
  m.flipped = image.empty() ? std::string(1, '\0') : image;
  for (int flips = 1 + static_cast<int>(rng.Uniform(4)); flips > 0;
       --flips) {
    m.flipped[rng.Uniform(m.flipped.size())] ^=
        static_cast<char>(1u << rng.Uniform(8));
  }
  m.garbage.resize(rng.Uniform(max_garbage));
  for (char& c : m.garbage) c = static_cast<char>(rng.Uniform(256));
  return m;
}

// ------------------------------------------------ Node decoder fuzz

class NodeDecoderFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

// A random node cell: mostly sorted lists (so the codec usually accepts
// it) with occasional inversions, duplicates and huge gaps, a payload whose
// length shifts the raw id arrays off alignment about 7 times in 8, and now
// and then a hub.
graph::NodeImage RandomNode(Random& rng) {
  graph::NodeImage node;
  node.data.resize(rng.Uniform(32));
  for (char& c : node.data) c = static_cast<char>(rng.Uniform(256));
  const std::uint64_t max_degree = rng.Bernoulli(0.05) ? 600 : 40;
  for (std::vector<CellId>* list : {&node.in, &node.out}) {
    CellId prev = 0;
    for (std::uint64_t k = rng.Uniform(max_degree); k > 0; --k) {
      prev = rng.Bernoulli(0.02) ? rng.Next() : prev + rng.Uniform(1u << 12);
      list->push_back(prev);
    }
  }
  return node;
}

// A node view must equal the full decode with the parts not asked for
// emptied.
void ExpectView(const storage::NodeView& view, const graph::NodeImage& node,
                storage::NodeParts parts) {
  EXPECT_EQ(view.data.ToString(), node.data);
  EXPECT_EQ(std::vector<CellId>(view.in, view.in + view.in_count),
            parts == storage::NodeParts::kAll ? node.in
                                              : std::vector<CellId>());
  EXPECT_EQ(std::vector<CellId>(view.out, view.out + view.out_count),
            parts == storage::NodeParts::kData ? std::vector<CellId>()
                                               : node.out);
}

constexpr storage::NodeParts kAllPartSelections[] = {
    storage::NodeParts::kData, storage::NodeParts::kDataOut,
    storage::NodeParts::kAll};

// Compressed cells and their mutants, each from an exact-size heap copy so
// ASan sees any read outside the slice. ValidateAdjacency accepts exactly
// what DecodeAdjacency accepts; on those inputs every part selection of
// DecodeNode equals Graph::DecodeNode of the decoded bytes. Selections that
// read the lists reject exactly the same inputs; a data-only read may
// accept bytes whose lists are bad, which validation at install catches.
TEST_P(NodeDecoderFuzzTest, PartsMatchTheFullDecodeAndStayInBounds) {
  Random rng(GetParam());
  std::vector<CellId> scratch;  // Reused across inputs, as per thread.
  int compressed = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    const std::string raw = graph::Graph::EncodeNode(RandomNode(rng));
    std::string encoded;
    if (!storage::CellCodec::EncodeAdjacency(Slice(raw), &encoded)) continue;
    ++compressed;
    const std::string& enc = encoded;
    const Mutants m = Mutate(rng, enc, 96);
    for (const std::string* input : {&enc, &m.cut, &m.flipped, &m.garbage}) {
      const std::vector<char> copy(input->begin(), input->end());
      const Slice bytes(copy.data(), copy.size());
      std::string decoded;
      const bool valid =
          storage::CellCodec::DecodeAdjacency(bytes, &decoded).ok();
      ASSERT_EQ(storage::CellCodec::ValidateAdjacency(bytes).ok(), valid);
      if (input == &enc) {
        ASSERT_TRUE(valid);
      }
      graph::NodeImage full;
      if (valid) {
        ASSERT_TRUE(graph::Graph::DecodeNode(0, Slice(decoded), &full).ok());
      }
      for (const storage::NodeParts parts : kAllPartSelections) {
        storage::NodeView view;
        const Status s =
            storage::CellCodec::DecodeNode(bytes, parts, &scratch, &view);
        if (parts != storage::NodeParts::kData) {
          ASSERT_EQ(s.ok(), valid) << s.ToString();
        }
        if (!valid) continue;
        ASSERT_TRUE(s.ok()) << s.ToString();
        ExpectView(view, full, parts);
      }
    }
  }
  EXPECT_GT(compressed, 500);
}

// Raw node cells and their mutants: Graph::DecodeNode never reads outside
// the slice, and a cell it accepts re-encodes to the same bytes. The
// in-place raw view accepts the same cells and, aligned or not, shows the
// same parts.
TEST_P(NodeDecoderFuzzTest, RawNodesDecodeAndViewAlike) {
  Random rng(GetParam());
  std::vector<CellId> scratch;
  for (int iter = 0; iter < 1500; ++iter) {
    const std::string raw = graph::Graph::EncodeNode(RandomNode(rng));
    const Mutants m = Mutate(rng, raw, 96);
    for (const std::string* input : {&raw, &m.cut, &m.flipped, &m.garbage}) {
      const std::vector<char> copy(input->begin(), input->end());
      const Slice bytes(copy.data(), copy.size());
      graph::NodeImage node;
      const bool ok = graph::Graph::DecodeNode(0, bytes, &node).ok();
      if (input == &raw) {
        ASSERT_TRUE(ok);
      }
      if (ok) {
        ASSERT_EQ(graph::Graph::EncodeNode(node), *input);
      }
      for (const storage::NodeParts parts : kAllPartSelections) {
        storage::NodeView view;
        const Status s =
            storage::CellCodec::ViewRawNode(bytes, parts, &scratch, &view);
        ASSERT_EQ(s.ok(), ok);
        if (ok) ExpectView(view, node, parts);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NodeDecoderFuzzTest,
                         ::testing::Values(9, 99, 999));

// ------------------------------------------------ Packed record fuzz

class PackedRecordFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

struct DecodedRecord {
  CellId target;
  std::string msg;
  bool operator==(const DecodedRecord& o) const {
    return target == o.target && msg == o.msg;
  }
};

// Decodes `bytes` from an exact-size heap copy (so ASan sees any read past
// the end), checks every record lies inside the payload, and re-encodes
// what was decoded. Returns the decoder's verdict.
bool DecodeChecked(const std::string& bytes, std::vector<DecodedRecord>* out,
                   std::string* reencoded) {
  const std::vector<char> copy(bytes.begin(), bytes.end());
  const Slice payload(copy.data(), copy.size());
  const char* end = copy.data() + copy.size();
  out->clear();
  reencoded->clear();
  const bool ok = compute::ForEachPackedRecord(
      payload, [&](CellId target, Slice msg) {
        EXPECT_TRUE(msg.size() == 0 || (msg.data() >= copy.data() &&
                                         msg.data() + msg.size() <= end))
            << "record outside the payload";
        out->push_back({target, msg.ToString()});
        compute::AppendPackedRecord(reencoded, target, msg);
      });
  return ok;
}

// AppendPackedRecord output decodes back exactly; truncated, bit-flipped
// and random buffers never make ForEachPackedRecord read past the payload,
// and whatever it yields before stopping is a well-formed prefix.
TEST_P(PackedRecordFuzzTest, RoundTripsAndNeverReadsPastThePayload) {
  Random rng(GetParam());
  std::vector<DecodedRecord> decoded;
  std::string reencoded;
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<DecodedRecord> records(rng.Uniform(12));
    std::string buf;
    for (DecodedRecord& rec : records) {
      rec.target = rng.Next();
      rec.msg.resize(rng.Bernoulli(0.1) ? 0 : rng.Uniform(64));
      for (char& c : rec.msg) c = static_cast<char>(rng.Uniform(256));
      compute::AppendPackedRecord(&buf, rec.target, Slice(rec.msg));
    }
    ASSERT_TRUE(DecodeChecked(buf, &decoded, &reencoded));
    ASSERT_EQ(decoded, records);
    ASSERT_EQ(reencoded, buf);

    // Truncation: exactly the records wholly before the cut survive, and
    // the verdict is false unless the cut falls on a record boundary.
    const Mutants m = Mutate(rng, buf, 96);
    const bool cut_ok = DecodeChecked(m.cut, &decoded, &reencoded);
    ASSERT_EQ(m.cut.compare(0, reencoded.size(), reencoded), 0);
    ASSERT_EQ(cut_ok, reencoded.size() == m.cut.size());
    ASSERT_LE(decoded.size(), records.size());
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      ASSERT_EQ(decoded[i], records[i]);
    }

    // Bit flips (often in a length field) and pure garbage: the decoded
    // records re-encode to a prefix of the input — the whole input iff
    // the decoder accepted it.
    for (const std::string* input : {&m.flipped, &m.garbage}) {
      const bool ok = DecodeChecked(*input, &decoded, &reencoded);
      ASSERT_EQ(input->compare(0, reencoded.size(), reencoded), 0);
      ASSERT_EQ(ok, reencoded.size() == input->size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackedRecordFuzzTest,
                         ::testing::Values(3, 33, 333));

// ------------------------------------------- Addressing table image fuzz

class AddressingTableFuzzTest
    : public ::testing::TestWithParam<std::uint64_t> {};

// Decodes from an exact-size heap copy, so ASan sees any read past the end.
Status DecodeTable(const std::string& bytes, cloud::AddressingTable* out) {
  const std::vector<char> copy(bytes.begin(), bytes.end());
  return cloud::AddressingTable::Deserialize(Slice(copy.data(), copy.size()),
                                             out);
}

// Random tables (moved trunks, replica sets) round-trip exactly. A strict
// prefix of an image is rejected; a bit-flipped or garbage image is either
// rejected or decodes to a table whose own image prefixes the input.
TEST_P(AddressingTableFuzzTest, RoundTripsAndNeverCrashesOnGarbage) {
  Random rng(GetParam());
  for (int iter = 0; iter < 1000; ++iter) {
    const int machines = 1 + static_cast<int>(rng.Uniform(8));
    // 2^p_bits slots, at least one per machine.
    const int p_bits = 3 + static_cast<int>(rng.Uniform(4));
    cloud::AddressingTable table(p_bits, machines);
    for (int k = static_cast<int>(rng.Uniform(24)); k > 0; --k) {
      const auto trunk = static_cast<TrunkId>(rng.Uniform(table.num_slots()));
      const auto machine = static_cast<MachineId>(rng.Uniform(machines));
      if (rng.Bernoulli(0.5)) {
        table.MoveTrunk(trunk, machine);
      } else {
        table.AddReplica(trunk, machine);
      }
    }
    const std::string image = table.Serialize();
    cloud::AddressingTable decoded(0, 1);
    ASSERT_TRUE(DecodeTable(image, &decoded).ok());
    ASSERT_TRUE(decoded == table);
    ASSERT_EQ(decoded.version(), table.version());
    ASSERT_EQ(decoded.Serialize(), image);

    const Mutants m = Mutate(rng, image, 256);
    ASSERT_EQ(DecodeTable(m.cut, &decoded).ok(), m.cut == image);
    for (const std::string* input : {&m.flipped, &m.garbage}) {
      if (!DecodeTable(*input, &decoded).ok()) continue;
      const std::string reencoded = decoded.Serialize();
      ASSERT_EQ(input->compare(0, reencoded.size(), reencoded), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddressingTableFuzzTest,
                         ::testing::Values(4, 44, 444));

// ------------------------------------------------ Versioned cell fuzz

class VersionedCellFuzzTest : public ::testing::TestWithParam<std::uint64_t> {
};

Status DecodeVersioned(const std::string& bytes, txn::VersionedCell* out) {
  const std::vector<char> copy(bytes.begin(), bytes.end());
  return txn::CellCodec::Decode(Slice(copy.data(), copy.size()), out);
}

// Random versioned cells round-trip exactly. A payload without the magic
// byte is a legacy value; a strict prefix of a versioned image is
// Corruption; a mutated versioned image is Corruption or a cell whose own
// encoding decodes back to itself.
TEST_P(VersionedCellFuzzTest, RoundTripsAndNeverCrashesOnGarbage) {
  Random rng(GetParam());
  auto random_bytes = [&rng] {
    std::string out(rng.Uniform(48), '\0');
    for (char& c : out) c = static_cast<char>(rng.Uniform(256));
    return out;
  };
  for (int iter = 0; iter < 2000; ++iter) {
    txn::VersionedCell cell;
    cell.version = rng.Next();
    cell.exists = rng.Bernoulli(0.7);
    if (cell.exists) cell.value = random_bytes();
    cell.has_intent = rng.Bernoulli(0.5);
    if (cell.has_intent) {
      cell.intent_txn = rng.Next();
      cell.intent_remove = rng.Bernoulli(0.3);
      if (!cell.intent_remove) cell.intent_value = random_bytes();
    }
    const std::string image = txn::CellCodec::Encode(cell);
    txn::VersionedCell decoded;
    ASSERT_TRUE(DecodeVersioned(image, &decoded).ok());
    ASSERT_EQ(decoded.version, cell.version);
    ASSERT_EQ(decoded.value, cell.value);
    ASSERT_EQ(decoded.intent_value, cell.intent_value);
    ASSERT_EQ(txn::CellCodec::Encode(decoded), image);

    Mutants m = Mutate(rng, image, 96);
    const Status cut = DecodeVersioned(m.cut, &decoded);
    if (m.cut.empty() || m.cut == image) {
      ASSERT_TRUE(cut.ok());
    } else {
      ASSERT_TRUE(cut.IsCorruption()) << cut.ToString();
    }
    if (!m.garbage.empty() && rng.Bernoulli(0.5)) {
      m.garbage[0] = static_cast<char>(txn::CellCodec::kMagic);
    }
    for (const std::string* input : {&m.flipped, &m.garbage}) {
      const Status s = DecodeVersioned(*input, &decoded);
      if (input->empty() || static_cast<std::uint8_t>((*input)[0]) !=
                                txn::CellCodec::kMagic) {
        ASSERT_TRUE(s.ok());
        ASSERT_EQ(decoded.version, txn::CellCodec::kLegacyVersion);
        ASSERT_EQ(decoded.value, *input);
        continue;
      }
      if (!s.ok()) {
        ASSERT_TRUE(s.IsCorruption()) << s.ToString();
        continue;
      }
      const std::string reencoded = txn::CellCodec::Encode(decoded);
      txn::VersionedCell again;
      ASSERT_TRUE(DecodeVersioned(reencoded, &again).ok());
      ASSERT_EQ(txn::CellCodec::Encode(again), reencoded);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VersionedCellFuzzTest,
                         ::testing::Values(6, 66, 666));

// ------------------------------------------------------ Trunk image fuzz

class TrunkImageFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

// Decodes from an exact-size heap copy, so ASan sees any read past the end.
Status DecodeTrunk(const std::string& bytes,
                   const storage::MemoryTrunk::Options& options,
                   std::unique_ptr<storage::MemoryTrunk>* out) {
  const std::vector<char> copy(bytes.begin(), bytes.end());
  return storage::MemoryTrunk::Deserialize(Slice(copy.data(), copy.size()),
                                           options, out);
}

// Every live cell of a trunk by id: its payload, or the read's error.
std::map<CellId, std::string> CellsOf(const storage::MemoryTrunk& trunk) {
  std::map<CellId, std::string> cells;
  for (CellId id : trunk.CellIds()) {
    std::string payload;
    const Status s = trunk.GetCell(id, &payload);
    cells[id] = s.ok() ? payload : "<" + s.ToString() + ">";
  }
  return cells;
}

// Random trunks round-trip through version-2 images (Serialize) and
// hand-built version-1 images (count, then raw id/payload records), with
// and without adjacency compression on either side. A strict prefix of an
// image is rejected; a bit-flipped or garbage image is rejected or decodes
// to a trunk that serves every cell (a compressed body that does not
// decode fails the load) and whose own image decodes back to the same
// cells.
TEST_P(TrunkImageFuzzTest, RoundTripsAndNeverCrashesOnGarbage) {
  Random rng(GetParam());
  for (int iter = 0; iter < 300; ++iter) {
    storage::MemoryTrunk::Options options;
    options.capacity = 1 << 20;
    options.compress_adjacency = rng.Bernoulli(0.5);
    std::map<CellId, std::string> cells;
    for (int k = static_cast<int>(rng.Uniform(16)); k > 0; --k) {
      const CellId id = rng.Uniform(1u << 20);
      if (rng.Bernoulli(0.5)) {
        // A node cell with sorted adjacency, which compresses.
        graph::NodeImage node;
        node.id = id;
        node.data = std::string(rng.Uniform(16), 'd');
        CellId next = rng.Uniform(1000);
        for (int e = static_cast<int>(rng.Uniform(24)); e > 0; --e) {
          node.out.push_back(next += rng.Uniform(64));
        }
        cells[id] = graph::Graph::EncodeNode(node);
      } else {
        std::string raw(rng.Uniform(64), '\0');
        for (char& c : raw) c = static_cast<char>(rng.Uniform(256));
        cells[id] = raw;
      }
    }

    std::string image;
    if (rng.Bernoulli(0.5)) {
      std::unique_ptr<storage::MemoryTrunk> trunk;
      ASSERT_TRUE(storage::MemoryTrunk::Create(options, &trunk).ok());
      for (const auto& [id, payload] : cells) {
        ASSERT_TRUE(trunk->AddCell(id, Slice(payload)).ok());
      }
      ASSERT_TRUE(trunk->Serialize(&image).ok());
    } else {
      BinaryWriter v1;
      v1.PutU64(cells.size());
      for (const auto& [id, payload] : cells) {
        v1.PutU64(id);
        v1.PutBytes(Slice(payload));
      }
      image = v1.Release();
    }

    storage::MemoryTrunk::Options decode_options = options;
    decode_options.compress_adjacency = rng.Bernoulli(0.5);
    std::unique_ptr<storage::MemoryTrunk> decoded;
    ASSERT_TRUE(DecodeTrunk(image, decode_options, &decoded).ok());
    ASSERT_EQ(CellsOf(*decoded), cells);
    std::string again;
    ASSERT_TRUE(decoded->Serialize(&again).ok());
    ASSERT_TRUE(DecodeTrunk(again, decode_options, &decoded).ok());
    ASSERT_EQ(CellsOf(*decoded), cells);

    const Mutants m = Mutate(rng, image, 256);
    ASSERT_EQ(DecodeTrunk(m.cut, decode_options, &decoded).ok(),
              m.cut == image);
    for (const std::string* input : {&m.flipped, &m.garbage}) {
      if (!DecodeTrunk(*input, decode_options, &decoded).ok()) continue;
      for (const CellId id : decoded->CellIds()) {
        std::string payload;
        ASSERT_TRUE(decoded->GetCell(id, &payload).ok()) << "cell " << id;
      }
      const std::map<CellId, std::string> got = CellsOf(*decoded);
      ASSERT_TRUE(decoded->Serialize(&again).ok());
      ASSERT_TRUE(DecodeTrunk(again, decode_options, &decoded).ok());
      ASSERT_EQ(CellsOf(*decoded), got);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrunkImageFuzzTest,
                         ::testing::Values(7, 77, 777));

}  // namespace
}  // namespace trinity
