// kv_serving: open-loop point traffic through QueryFrontend on 8 slaves
// with one synchronous replica per trunk and no TFS. Keys follow Zipf
// theta=0.99; the mix is 80% Get, 10% Put, 5% MultiGet(8) and 5% two-account
// transfer transactions. Every eighth key is read-only and must always read
// back its seeded bytes; the bank's total balance must be conserved.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "net/cost_model.h"

namespace trinity::perfbench {
namespace {

using serving::QueryFrontend;

constexpr int kSlaves = 8;
constexpr std::uint64_t kKeys = 1 << 16;
constexpr std::uint64_t kAccounts = 4096;
constexpr CellId kBankBase = 1ull << 40;
constexpr std::int64_t kInitialBalance = 1000;
constexpr std::size_t kValueBytes = 64;
constexpr int kMultiGetBatch = 8;
constexpr int kScanBatch = 64;
constexpr double kTheta = 0.99;
// A transfer that ends in a transient error (a conflict that outlived the
// frontend's own retries, a missed deadline or a shed) is resubmitted by
// the client, up to this many calls in all.
constexpr int kTransferCalls = 16;
// Client pause before resubmitting a transfer: uniform in [0, cap], the cap
// starting at this many µs and doubling per call, at most 2^6 times.
constexpr std::uint64_t kResubmitBackoffUs = 50;
constexpr int kBackoffDoublings = 6;

enum Type : std::uint8_t { kGet, kPut, kMultiGet, kTxn };

bool ReadOnlyKey(CellId k) { return k % 8 == 0; }

std::string KeyTag(CellId k) { return "k" + std::to_string(k) + ":"; }

std::string Value(CellId k, const std::string& version, std::uint64_t salt) {
  std::string v = KeyTag(k) + version + ":";
  std::uint64_t h = Mix64(k ^ salt);
  while (v.size() < kValueBytes) {
    v.push_back(static_cast<char>('a' + h % 26));
    h = Mix64(h);
  }
  v.resize(kValueBytes);
  return v;
}

class KvServing : public Workload {
 public:
  explicit KvServing(std::uint64_t seed)
      : seed_(seed),
        key_zipf_(kKeys, kTheta),
        account_zipf_(kAccounts, kTheta) {
    // Scatter Zipf ranks over the keyspace so hot keys land on every trunk.
    by_rank_.resize(kKeys);
    std::iota(by_rank_.begin(), by_rank_.end(), 0);
    RequestRng rng(seed, ~0ull);
    for (std::uint64_t i = kKeys - 1; i > 0; --i) {
      std::swap(by_rank_[i], by_rank_[rng.Uniform(i + 1)]);
    }
  }

  ~KvServing() override { Teardown(); }

  bool Setup() override {
    Teardown();
    cloud::MemoryCloud::Options options;
    options.num_slaves = kSlaves;
    options.p_bits = 6;
    options.replication_factor = 1;
    options.storage.trunk.capacity = 8ull << 20;
    if (!cloud::MemoryCloud::Create(options, &cloud_).ok()) return false;
    // Bulk load from each key's owner, as Generators::Load does for graphs.
    for (CellId k = 0; k < kKeys; ++k) {
      if (!cloud_->PutCellFrom(cloud_->MachineOf(k), k,
                               Slice(SeedValue(k)))
               .ok()) {
        return false;
      }
    }
    const std::string balance = std::to_string(kInitialBalance);
    for (std::uint64_t a = 0; a < kAccounts; ++a) {
      const CellId id = kBankBase + a;
      if (!cloud_->PutCellFrom(cloud_->MachineOf(id), id, Slice(balance))
               .ok()) {
        return false;
      }
    }
    frontend_ = std::make_unique<QueryFrontend>(cloud_.get(), nullptr,
                                                QueryFrontend::Options{});
    stored_bytes_per_item_ = StoredBytesPerItem();
    return true;
  }

  std::vector<std::string> type_names() const override {
    return {"get", "put", "multiget", "txn"};
  }

  Outcome Issue(std::uint64_t i, SpanLog* spans) override {
    RequestRng rng(seed_, i);
    const double pick = rng.NextDouble();
    Outcome o;
    const std::int64_t start = spans != nullptr ? NowNs() : 0;
    if (pick < 0.80) {
      o = Get(Key(rng));
    } else if (pick < 0.90) {
      o = Put(WritableKey(rng), i);
    } else if (pick < 0.95) {
      std::vector<CellId> ids(kMultiGetBatch);
      for (CellId& id : ids) id = Key(rng);
      o = MultiGet(ids);
    } else {
      o = Transfer(rng);
    }
    if (spans != nullptr) {
      static const char* kLayers[] = {"serving.get", "serving.put",
                                      "serving.multiget", "serving.txn"};
      spans->Add({i, spans->Layer(kLayers[o.type]), 1, start, NowNs()});
    }
    return o;
  }

  // Batch pass: a full-keyspace scan through the frontend in MultiGet
  // batches, every value checked. Modeled seconds price the scan's fabric
  // meters, reset just before it (no other request is in flight).
  void Pass(Json& out) override {
    net::Fabric& fabric = cloud_->fabric();
    fabric.ResetMeters();
    std::uint64_t bad = 0;
    const std::int64_t start = NowNs();
    std::vector<CellId> ids;
    for (CellId k = 0; k < kKeys; k += kScanBatch) {
      ids.clear();
      for (CellId j = k; j < std::min<CellId>(k + kScanBatch, kKeys); ++j) {
        ids.push_back(j);
      }
      if (!MultiGet(ids).ok) ++bad;
    }
    const double wall = (NowNs() - start) / 1e9;
    out.Bool("ok", bad == 0)
        .Int("failed", bad)
        .Num("pass_s", wall)
        .Num("pass_modeled_s", net::CostModel().PhaseSeconds(fabric))
        .Num("stored_bytes_per_item", stored_bytes_per_item_);
  }

  // Snapshot: one snapshot-isolation transaction reads every account and
  // sums the bank (the audit), through the frontend.
  void Snapshot(Json& out) override {
    std::int64_t sum = 0;
    const std::int64_t start = NowNs();
    const Status s = Audit(&sum);
    const double wall = (NowNs() - start) / 1e9;
    out.Bool("ok", s.ok() && sum == Expected())
        .Num("snapshot_s", wall)
        .Int("items", kAccounts);
  }

  // Single-client modeled latency of the request mix: each request runs
  // alone against freshly reset fabric meters and is priced by CostModel.
  void Probe(Json& out, int slice, int slices,
             std::uint64_t queries) override {
    net::Fabric& fabric = cloud_->fabric();
    const net::CostModel model;
    std::vector<double> modeled;
    std::uint64_t failed = 0;
    for (std::uint64_t j = slice; j < queries; j += slices) {
      fabric.ResetMeters();
      if (!Issue(kProbeBase + j, nullptr).ok) ++failed;
      modeled.push_back(model.PhaseSeconds(fabric) * 1e3);
    }
    out.Bool("ok", failed == 0).Int("failed", failed);
    out.BeginArray("modeled_ms");
    for (double m : modeled) out.Num(nullptr, m);
    out.EndArray();
  }

  void Check(Json& out) override {
    std::uint64_t checks = 0, failed = 0;
    std::string value;
    for (CellId k = 0; k < kKeys; k += 8) {
      ++checks;
      if (!cloud_->GetCell(k, &value).ok() || value != SeedValue(k)) ++failed;
    }
    std::int64_t sum = 0;
    ++checks;
    const Status s = Audit(&sum);
    if (!s.ok() || sum != Expected()) ++failed;
    out.Bool("ok", failed == 0)
        .Int("checks", checks)
        .Int("failed", failed)
        .Int("bank_sum", static_cast<std::uint64_t>(sum))
        .Int("bank_expected", static_cast<std::uint64_t>(Expected()));
  }

  void Counters(Json& out) override {
    out.Bool("ok", true);
    EmitCounters(out, *cloud_, frontend_.get(), nullptr);
    out.Begin("client")
        .Int("txn_resubmits", resubmits_.load(std::memory_order_relaxed))
        .End();
  }

  void Replay(int samples, SpanLog* spans, Json& out) override {
    RequestRng rng(seed_, kReplayBase);
    std::vector<CellId> keys(static_cast<std::size_t>(samples));
    for (CellId& k : keys) k = Key(rng);
    out.Bool("ok", true);
    ReplayGets(out, *frontend_, *cloud_, keys, kReplayBase, spans);

    // Put: frontend, then the cloud from the client, then from the owner
    // itself, whose fabric bytes are the replication shipment alone.
    const std::uint8_t l_serving = spans->Layer("serving.put");
    const std::uint8_t l_cloud = spans->Layer("cloud.put");
    std::vector<double> top, mid;
    std::uint64_t ship_bytes = 0, failed = 0;
    const int puts = std::max(1, samples / 4);
    for (int j = 0; j < puts; ++j) {
      const std::uint64_t req = kReplayBase + 1'000'000 + j;
      const CellId k = WritableKey(rng);
      QueryFrontend::Request request;
      request.type = QueryFrontend::RequestType::kPut;
      request.id = k;
      request.payload = Value(k, "r" + std::to_string(j), seed_);
      QueryFrontend::Response response;
      std::int64_t a = NowNs();
      Status s0 = frontend_->Execute(request, &response);
      std::int64_t b = NowNs();
      spans->Add({req, l_serving, 0, a, b});
      const double t_top = static_cast<double>(b - a);
      a = NowNs();
      Status s1 = cloud_->PutCell(k, Slice(request.payload));
      b = NowNs();
      spans->Add({req, l_cloud, 1, a, b});
      const double t_mid = static_cast<double>(b - a);
      Status s2;
      ship_bytes += FabricDelta(*cloud_, [&] {
                      s2 = cloud_->PutCellFrom(cloud_->MachineOf(k), k,
                                               Slice(request.payload));
                    }).bytes;
      if (!s0.ok() || !s1.ok() || !s2.ok()) {
        ++failed;
        continue;
      }
      top.push_back(t_top / 1e3);
      mid.push_back(t_mid / 1e3);
    }
    out.Begin("put")
        .Int("samples", static_cast<std::uint64_t>(puts))
        .Int("failed", failed)
        .Num("serving_us", Median(top))
        .Num("cloud_us", Median(mid))
        .Num("bytes_per_put",
             static_cast<double>(ship_bytes) / static_cast<double>(puts))
        .End();

    // MultiGet(8): frontend, then the cloud's batched read.
    const std::uint8_t m_serving = spans->Layer("serving.multiget");
    const std::uint8_t m_cloud = spans->Layer("cloud.multiget");
    top.clear();
    mid.clear();
    failed = 0;
    std::vector<cloud::MemoryCloud::MultiGetResult> results;
    for (int j = 0; j < puts; ++j) {
      const std::uint64_t req = kReplayBase + 2'000'000 + j;
      QueryFrontend::Request request;
      request.type = QueryFrontend::RequestType::kMultiGet;
      for (int b = 0; b < kMultiGetBatch; ++b) request.ids.push_back(Key(rng));
      QueryFrontend::Response response;
      std::int64_t a = NowNs();
      Status s0 = frontend_->Execute(request, &response);
      std::int64_t b = NowNs();
      spans->Add({req, m_serving, 0, a, b});
      top.push_back((b - a) / 1e3);
      a = NowNs();
      Status s1 = cloud_->MultiGet(request.ids, &results);
      b = NowNs();
      spans->Add({req, m_cloud, 1, a, b});
      mid.push_back((b - a) / 1e3);
      if (!s0.ok() || !s1.ok()) ++failed;
    }
    out.Begin("multiget")
        .Int("samples", static_cast<std::uint64_t>(puts))
        .Int("failed", failed)
        .Num("serving_us", Median(top))
        .Num("cloud_us", Median(mid))
        .End();
  }

 private:
  static constexpr std::uint64_t kProbeBase = 1ull << 60;
  static constexpr std::uint64_t kReplayBase = 1ull << 61;

  std::string SeedValue(CellId k) const { return Value(k, "s", seed_); }
  std::int64_t Expected() const {
    return static_cast<std::int64_t>(kAccounts) * kInitialBalance;
  }

  CellId Key(RequestRng& rng) const {
    return by_rank_[key_zipf_.Rank(rng.NextDouble())];
  }
  CellId WritableKey(RequestRng& rng) const {
    const CellId k = Key(rng);
    return ReadOnlyKey(k) ? k + 1 : k;
  }

  bool ValueOk(CellId k, const std::string& v) const {
    if (ReadOnlyKey(k)) return v == SeedValue(k);
    const std::string tag = KeyTag(k);
    return v.size() == kValueBytes && v.compare(0, tag.size(), tag) == 0;
  }

  Outcome Get(CellId k) {
    QueryFrontend::Request request;
    request.type = QueryFrontend::RequestType::kGet;
    request.id = k;
    QueryFrontend::Response response;
    const bool ok = frontend_->Execute(request, &response).ok();
    const bool good = ok && ValueOk(k, response.value);
    return {good, ok && !good, kGet};
  }

  Outcome Put(CellId k, std::uint64_t i) {
    QueryFrontend::Request request;
    request.type = QueryFrontend::RequestType::kPut;
    request.id = k;
    request.payload = Value(k, "p" + std::to_string(i), seed_ ^ i);
    QueryFrontend::Response response;
    return {frontend_->Execute(request, &response).ok(), false, kPut};
  }

  Outcome MultiGet(const std::vector<CellId>& ids) {
    QueryFrontend::Request request;
    request.type = QueryFrontend::RequestType::kMultiGet;
    request.ids = ids;
    QueryFrontend::Response response;
    const bool ok = frontend_->Execute(request, &response).ok() &&
                    response.values.size() == ids.size();
    bool good = ok;
    for (std::size_t j = 0; good && j < ids.size(); ++j) {
      good = response.values[j].status.ok() &&
             ValueOk(ids[j], response.values[j].value);
    }
    return {good, ok && !good, kMultiGet};
  }

  // Accounts follow the same Zipf law as keys, so hot accounts contend.
  Outcome Transfer(RequestRng& rng) {
    const std::uint64_t a = account_zipf_.Rank(rng.NextDouble());
    std::uint64_t b = account_zipf_.Rank(rng.NextDouble());
    if (b == a) b = (a + 1) % kAccounts;
    const std::int64_t amount = 1 + static_cast<std::int64_t>(rng.Uniform(10));
    const CellId from = kBankBase + a, to = kBankBase + b;
    auto body = [&](txn::Transaction& t) {
      std::int64_t fb = 0, tb = 0;
      Status r = ReadBalance(t, from, &fb);
      if (r.ok()) r = ReadBalance(t, to, &tb);
      if (!r.ok() || fb < amount) return r;
      r = t.Put(from, Slice(std::to_string(fb - amount)));
      if (r.ok()) r = t.Put(to, Slice(std::to_string(tb + amount)));
      return r;
    };
    // Such an error is terminal for that call, and the frontend contract
    // lets the caller resubmit. It follows a stall of the transaction
    // holding the intents, or two clients on a hot account that keep
    // wound-aborting each other's live transactions: once the cluster-wide
    // retry budget is spent, each call makes one attempt, and without a
    // pause between calls 16 in a row were wounded, a few times per
    // million requests. The client therefore backs off for a random time
    // that doubles with each call, as conflict retries do. The latency
    // covers every call and pause; `txn_resubmits` counts the extra calls.
    auto transient = [](const Status& s) {
      return s.IsTxnConflict() || s.IsDeadlineExceeded() ||
             s.IsResourceExhausted();
    };
    Status s = frontend_->ExecuteTransaction(body);
    for (int call = 1; call < kTransferCalls && transient(s); ++call) {
      resubmits_.fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t cap_us = kResubmitBackoffUs
                                   << std::min(call - 1, kBackoffDoublings);
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng.Uniform(cap_us + 1)));
      s = frontend_->ExecuteTransaction(body);
    }
    if (!s.ok()) {
      std::fprintf(stderr, "transfer %llu -> %llu failed: %s\n",
                   static_cast<unsigned long long>(from),
                   static_cast<unsigned long long>(to), s.ToString().c_str());
    }
    return {s.ok(), s.IsCorruption(), kTxn};
  }

  static Status ReadBalance(txn::Transaction& t, CellId id,
                            std::int64_t* out) {
    std::string v;
    Status s = t.Get(id, &v);
    if (!s.ok()) return s;
    char* end = nullptr;
    *out = std::strtoll(v.c_str(), &end, 10);
    if (v.empty() || end != v.c_str() + v.size()) {
      return Status::Corruption("balance is not a number");
    }
    return Status::OK();
  }

  Status Audit(std::int64_t* sum) {
    return frontend_->ExecuteTransaction([&](txn::Transaction& t) {
      *sum = 0;
      for (std::uint64_t a = 0; a < kAccounts; ++a) {
        std::int64_t b = 0;
        Status s = ReadBalance(t, kBankBase + a, &b);
        if (!s.ok()) return s;
        *sum += b;
      }
      return Status::OK();
    });
  }

  // Stored bytes per seeded key or account, taken right after seeding so it
  // does not depend on how many transactions (and their commit records) a
  // run happened to execute.
  double StoredBytesPerItem() const {
    const storage::MemoryTrunk::Stats t = cloud_->AggregateTrunkStats();
    return static_cast<double>(t.live_bytes + t.spilled_bytes) /
           static_cast<double>(kKeys + kAccounts);
  }

  void Teardown() {
    frontend_.reset();
    cloud_.reset();
  }

  const std::uint64_t seed_;
  const Zipf key_zipf_;
  const Zipf account_zipf_;
  std::vector<CellId> by_rank_;
  std::atomic<std::uint64_t> resubmits_{0};
  std::unique_ptr<cloud::MemoryCloud> cloud_;
  std::unique_ptr<QueryFrontend> frontend_;
  double stored_bytes_per_item_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeKvServing(std::uint64_t seed) {
  return std::make_unique<KvServing>(seed);
}

}  // namespace trinity::perfbench
