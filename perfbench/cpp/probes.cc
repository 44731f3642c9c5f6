#include "probes.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/serve/admission.h"
#include "net/fabric.h"
#include "nn/loss.h"
#include "nn/tensor.h"
#include "sim/arrival.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "spans.h"
#include "storage/codec.h"
#include "workloads.h"

namespace ndpb {

using namespace ndp;

namespace {

using Metrics = std::map<std::string, double>;

double
secondsSince(int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

/** One repetition of a workload; the traced pass compares outputs
 *  across its paired repetitions. */
struct Rep
{
    double timedS = 0.0;
    Outputs out;
    std::map<std::string, double> counters;
};

Rep
runRep(const std::string &name, RunOptions opt)
{
    auto w = makeWorkload(name, opt);
    w->setup();
    const int64_t t0 = nowNs();
    w->run();
    Rep r;
    r.timedS = secondsSince(t0);
    r.out = w->outputs();
    r.counters = w->counters();
    if (auto v = w->check(); !v.empty())
        throw std::runtime_error(name + ": " + v.front());
    return r;
}

double
pct(double on, double off)
{
    return 100.0 * (on - off) / off;
}

/** Sum of the durations of every span called @p name. */
double
spanSeconds(const SpanRecorder &rec, const std::string &name)
{
    int64_t ns = 0;
    for (const SpanRecorder::Record &r : rec.records())
        if (r.name == name)
            ns += r.endNs - r.startNs;
    return static_cast<double>(ns) * 1e-9;
}

// ---------------------------------------------------------------------
// sim: isolated engine drives

/** Pending events kept in the queue by the isolated drives. */
constexpr int kQueueDepth = 64;

/** Simulator::schedule + run: @p n callbacks, each rescheduling one
 *  successor at a pseudo-random delay. The callback captures one
 *  pointer, so std::function stores it inline, as it does the
 *  engine's own coroutine-resume callbacks. Returns ns per event. */
double
dispatchNs(uint64_t n)
{
    struct State
    {
        sim::Simulator s;
        uint64_t left = 0;
        uint64_t lcg = 12345;

        void
        tick()
        {
            if (left == 0)
                return;
            --left;
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            s.schedule(static_cast<double>(lcg >> 40) * 1e-9,
                       [this] { tick(); });
        }
    } st;
    st.left = n;
    const int64_t t0 = nowNs();
    for (int i = 0; i < kQueueDepth; ++i)
        st.s.schedule(0.0, [&st] { st.tick(); });
    st.s.run();
    return static_cast<double>(nowNs() - t0) /
           static_cast<double>(st.s.processedEvents());
}

sim::Task
sleeper(sim::Simulator &s, uint64_t n, double step)
{
    for (uint64_t i = 0; i < n; ++i)
        co_await s.delay(step);
}

/** Coroutine delay/resume: kQueueDepth processes resuming @p n times
 *  in total. Returns ns per resume. */
double
resumeNs(uint64_t n)
{
    sim::Simulator s;
    const uint64_t per = std::max<uint64_t>(1, n / kQueueDepth);
    for (int i = 0; i < kQueueDepth; ++i)
        s.spawn(sleeper(s, per, 1e-3 * (1.0 + 0.01 * i)));
    const int64_t t0 = nowNs();
    s.run();
    return static_cast<double>(nowNs() - t0) /
           static_cast<double>(per * kQueueDepth);
}

// ---------------------------------------------------------------------
// net: isolated fabric replay

struct FlowPattern
{
    net::NodeId src;
    net::NodeId dst;
    double bytes;
    net::FlowClass cls;
};

sim::Task
flowWorker(net::NetFabric &fab, const std::vector<FlowPattern> &pat,
           size_t first, uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i) {
        const FlowPattern &p = pat[(first + i) % pat.size()];
        co_await fab.transfer(p.src, p.dst, p.bytes, p.cls);
    }
}

struct Replay
{
    double usPerFlow = 0.0;
    /** Engine events the replay dispatched per flow. */
    double eventsPerFlow = 0.0;
};

/** Replays @p flows transfers over @p pat with @p concurrency flows in
 *  flight on a bare Simulator. */
Replay
replay(sim::Simulator &s, net::NetFabric &fab,
         const std::vector<FlowPattern> &pat, int concurrency,
         uint64_t flows)
{
    const uint64_t per = std::max<uint64_t>(1, flows / concurrency);
    for (int i = 0; i < concurrency; ++i)
        s.spawn(flowWorker(fab, pat, static_cast<size_t>(i) * 7, per));
    const int64_t t0 = nowNs();
    s.run();
    const double done = static_cast<double>(fab.report().flowsCompleted);
    return {static_cast<double>(nowNs() - t0) * 1e-3 / done,
            static_cast<double>(s.processedEvents()) / done};
}

/** serve-spike's hub fabric: 16 stores, Tuner, front end, client;
 *  uploads client -> store and query replies store -> client. */
Replay
serveNet(int concurrency, uint64_t flows)
{
    const core::ClusterSpec spec = serveSpikeSpec(1);
    const sim::ArrivalConfig a = serveSpikeConfig(1).arrivals;
    sim::Simulator s;
    net::NetFabric fab(s, net::Topology::hub());
    std::vector<net::NodeId> stores;
    for (int i = 0; i < spec.nStores; ++i)
        stores.push_back(fab.addNode(spec.storeSpec.nic));
    fab.setIngress(fab.addNode(spec.nic()));
    fab.addNode(spec.nic());
    const net::NodeId client = fab.addNode(spec.tunerSpec.nic);
    std::vector<FlowPattern> pat;
    for (size_t i = 0; i < stores.size(); ++i) {
        pat.push_back({client, stores[i], a.uploadBytes,
                       net::FlowClass::Upload});
        for (int q = 0; q < 2; ++q)
            pat.push_back({stores[(i + 5 * q) % stores.size()], client,
                           a.queryBytes, net::FlowClass::ResultShip});
    }
    return replay(s, fab, pat, concurrency, flows);
}

/** fleet-day's WAN fabric (the Cluster's home rack + one rack per
 *  site behind its WAN link): feature ships store -> Tuner, labels
 *  store -> front end, deltas Tuner -> site replicas. */
Replay
fleetNet(int concurrency, uint64_t flows)
{
    const core::ClusterSpec spec = fleetDaySpec(true);
    net::Topology topo;
    const net::SiteId home = topo.addSite("home");
    double wan_sum = 0.0;
    for (const core::WanSite &w : spec.wanSites)
        wan_sum += w.gbps;
    topo.addRack(home, std::max(100.0, 2.0 * wan_sum));
    for (const core::WanSite &w : spec.wanSites) {
        const net::SiteId sid = topo.addSite(w.name);
        topo.addRack(sid, std::max(25.0, 2.0 * w.gbps));
        topo.addWanLink(home, sid, w.gbps, w.latencyS);
    }
    sim::Simulator s;
    net::NetFabric fab(s, topo);
    std::vector<net::NodeId> stores;
    for (int i = 0; i < spec.nStores; ++i)
        stores.push_back(fab.addNode(spec.storeSpec.nic));
    const net::NodeId tuner = fab.addNode(spec.nic());
    fab.setIngress(tuner);
    const net::NodeId front = fab.addNode(spec.nic());
    fab.addNode(spec.tunerSpec.nic);
    std::vector<net::NodeId> sites;
    for (size_t w = 0; w < spec.wanSites.size(); ++w)
        sites.push_back(fab.addNode(spec.storeSpec.nic,
                                    static_cast<net::RackId>(1 + w)));
    std::vector<FlowPattern> pat;
    for (size_t i = 0; i < stores.size(); ++i) {
        if (i < 10)
            pat.push_back({stores[i], tuner, 8.0e6,
                           net::FlowClass::FeatureShip});
        else
            pat.push_back({stores[i], front, 2.0e5,
                           net::FlowClass::ResultShip});
    }
    for (net::NodeId site : sites)
        pat.push_back({tuner, site, 2.5e5, net::FlowClass::DeltaPush});
    return replay(s, fab, pat, concurrency, flows);
}

// ---------------------------------------------------------------------
// sim/arrival + core/serve: isolated front-door drives

/** ArrivalProcess::next over the whole serve-spike stream. */
double
arrivalNs(uint64_t seed, std::vector<sim::Request> &stream)
{
    sim::ArrivalProcess ap(serveSpikeConfig(seed).arrivals);
    stream.clear();
    stream.reserve(serveSpikeConfig(seed).arrivals.nRequests);
    sim::Request r;
    const int64_t t0 = nowNs();
    while (ap.next(r))
        stream.push_back(r);
    return static_cast<double>(nowNs() - t0) /
           static_cast<double>(stream.size());
}

/** AdmissionController + LoadBalancer over the generated stream.
 *  Accepted requests complete FIFO per backend after a fixed
 *  per-kind service estimate (the drive's completion heap is part of
 *  the measured time). Returns ns per request. */
double
admitNs(uint64_t seed, const std::vector<sim::Request> &stream)
{
    constexpr double kUploadS = 0.060;
    constexpr double kQueryS = 0.004;
    core::serve::LoadBalancer lb(kServeStores);
    core::serve::AdmissionController ac(serveSpikeConfig(seed).admission,
                                        lb);
    std::vector<double> busyUntil(kServeStores, 0.0);
    using Done = std::pair<double, int>;
    std::priority_queue<Done, std::vector<Done>, std::greater<>> done;
    uint64_t accepted = 0;
    const int64_t t0 = nowNs();
    for (const sim::Request &r : stream) {
        while (!done.empty() && done.top().first <= r.arriveS) {
            lb.dequeued(done.top().second);
            done.pop();
        }
        const double est =
            r.kind == sim::RequestKind::Upload ? kUploadS : kQueryS;
        int b = -1;
        if (ac.offer(r.arriveS, r.deadlineS, est, &b) ==
            core::serve::Verdict::Accept) {
            double &busy = busyUntil[static_cast<size_t>(b)];
            busy = std::max(busy, r.arriveS) + est;
            done.emplace(busy, b);
            ++accepted;
        }
    }
    const double ns = static_cast<double>(nowNs() - t0) /
                      static_cast<double>(stream.size());
    if (accepted == 0)
        throw std::runtime_error("admission drive accepted nothing");
    return ns;
}

// ---------------------------------------------------------------------
// nn: isolated kernel calls at the drift-retrain shapes

/** Calls of @p fn per timed batch: enough for ~20 ms. */
int
callsPerBatch(const std::function<void()> &fn)
{
    const int64_t t0 = nowNs();
    for (int i = 0; i < 10; ++i)
        fn();
    const double per = static_cast<double>(nowNs() - t0) / 10.0;
    return std::max(10, static_cast<int>(2.0e7 / std::max(per, 1.0)));
}

/** Median ns per call over 5 batches; records the call count. */
void
kernel(Metrics &m, const std::string &key, const std::function<void()> &fn,
       double flops, double bytes)
{
    const int calls = callsPerBatch(fn);
    std::vector<double> per;
    for (int b = 0; b < 5; ++b) {
        const int64_t t0 = nowNs();
        for (int i = 0; i < calls; ++i)
            fn();
        per.push_back(static_cast<double>(nowNs() - t0) / calls);
    }
    std::sort(per.begin(), per.end());
    m["nn." + key + "_ns"] = per[2];
    m["nn." + key + "_flops"] = flops;
    m["nn." + key + "_bytes"] = bytes;
    m["nn." + key + "_calls"] = 5.0 * calls;
}

void
nnKernels(Metrics &m, uint64_t seed)
{
    constexpr size_t kB = 128;  // training batch
    constexpr size_t kIn = 24;  // latent dim
    constexpr size_t kF = 12;   // backbone feature width
    Rng rng(mix(seed, 7));
    float sink = 0.0f;
    const nn::Tensor x = nn::Tensor::randn(kB, kIn, rng, 1.0f);
    const nn::Tensor w0 = nn::Tensor::randn(kIn, kF, rng, 1.0f);
    const nn::Tensor feat = nn::Tensor::randn(kB, kF, rng, 1.0f);
    kernel(
        m, "matmul", [&] { sink += nn::matmul(x, w0).at(0, 0); },
        2.0 * kB * kIn * kF, 4.0 * (kB * kIn + kIn * kF + kB * kF));
    for (size_t classes : {100, 200}) {
        const std::string sfx = classes == 100 ? "" : ".c200";
        const nn::Tensor grad = nn::Tensor::randn(kB, classes, rng, 1.0f);
        const nn::Tensor w = nn::Tensor::randn(kF, classes, rng, 1.0f);
        const double c = static_cast<double>(classes);
        // 128xC . (12xC)^T: the head's input gradient.
        kernel(
            m, "matmulNT" + sfx,
            [&] { sink += nn::matmulNT(grad, w).at(0, 0); },
            2.0 * kB * c * kF, 4.0 * (kB * c + kF * c + kB * kF));
        // (128x12)^T . 128xC: the head's weight gradient.
        kernel(
            m, "matmulTN" + sfx,
            [&] { sink += nn::matmulTN(feat, grad).at(0, 0); },
            2.0 * kB * kF * c, 4.0 * (kB * kF + kB * c + kF * c));
        // Row softmax over 128xC logits: max, exp, sum, divide.
        kernel(
            m, "softmax" + sfx, [&] { sink += nn::softmax(grad).at(0, 0); },
            4.0 * kB * c, 4.0 * 2.0 * kB * c);
    }
    if (sink == 12345.0f)
        std::printf("#\n"); // keep the results observable
}

// ---------------------------------------------------------------------
// storage: codec throughput on a delta-shaped stream

/** The raw stream encodeDelta deflates for a 200-class head: one
 *  varint gap byte + 4 float bytes per changed parameter. */
storage::Bytes
deltaShapedStream(uint64_t seed)
{
    Rng rng(mix(seed, 8));
    storage::Bytes raw;
    for (int i = 0; i < 12 * 200 + 200; ++i) {
        raw.push_back(1);
        const float v = static_cast<float>(rng.normal() * 0.05);
        uint8_t b[4];
        std::memcpy(b, &v, 4);
        raw.insert(raw.end(), b, b + 4);
    }
    return raw;
}

void
codec(Metrics &m, uint64_t seed)
{
    const storage::Bytes raw = deltaShapedStream(seed);
    constexpr int kReps = 400;
    storage::Bytes packed;
    int64_t t0 = nowNs();
    for (int i = 0; i < kReps; ++i)
        packed = storage::deflateLite(raw);
    const double mb = static_cast<double>(raw.size()) * kReps / 1.0e6;
    m["codec.deflate_mb_per_s"] = mb / secondsSince(t0);
    t0 = nowNs();
    std::optional<storage::Bytes> back;
    for (int i = 0; i < kReps; ++i)
        back = storage::inflateLite(packed);
    m["codec.inflate_mb_per_s"] = mb / secondsSince(t0);
    if (!back || *back != raw)
        throw std::runtime_error("codec round trip failed");
}

// ---------------------------------------------------------------------
// Per-workload traced passes

struct Pass
{
    SpanRecorder rec;
    Metrics m;
    /** repetition -> outputs bit-identical to the untraced warm-up. */
    std::map<std::string, bool> identical;
};

/** Timed phases of the traced pass's repetitions of one workload. */
struct Paired
{
    /** The repetition with spans around every call. */
    Rep traced;
    /** Untraced repetition: the baseline overheads are relative to. */
    double baselineS = 0.0;
    /** Variant span name -> timed seconds. */
    std::map<std::string, double> variantS;
};

/**
 * Runs an untraced warm-up (the first repetition in a process runs
 * slower, so it only supplies the reference outputs), the traced
 * repetition, each variant, and the untraced baseline last. Every
 * repetition's outputs must equal the warm-up's.
 */
Paired
pairedReps(Pass &p, const std::string &wl, uint64_t seed,
           const std::vector<std::pair<std::string, RunOptions>> &variants)
{
    RunOptions off;
    off.seed = seed;
    Rep ref;
    {
        Span s(&p.rec, "rep untraced warm-up");
        ref = runRep(wl, off);
    }
    RunOptions on = off;
    on.spans = &p.rec;
    Paired out;
    {
        Span s(&p.rec, "rep traced");
        out.traced = runRep(wl, on);
    }
    p.identical["spans"] = out.traced.out == ref.out;
    for (const auto &[name, opt] : variants) {
        RunOptions v = opt;
        v.seed = seed;
        Span s(&p.rec, name.c_str());
        const Rep r = runRep(wl, v);
        out.variantS[name] = r.timedS;
        p.identical[name] = r.out == ref.out;
    }
    Rep base;
    {
        Span s(&p.rec, "rep untraced");
        base = runRep(wl, off);
    }
    p.identical["untraced"] = base.out == ref.out;
    out.baselineS = base.timedS;
    p.m["bench.span_overhead_pct." + wl] =
        pct(out.traced.timedS, out.baselineS);
    return out;
}

/** The traced pass of a Cluster workload: obs on/off pairs plus the
 *  engine drives at the workload's event count. */
Paired
clusterReps(Pass &p, const std::string &wl, uint64_t seed,
            std::vector<std::pair<std::string, RunOptions>> variants)
{
    RunOptions trace_on, monitor_on;
    trace_on.obs = Obs::Trace;
    monitor_on.obs = Obs::Monitor;
    variants.emplace_back("rep obs.TraceSession", trace_on);
    variants.emplace_back("rep obs.MonitorSession", monitor_on);
    Paired r = pairedReps(p, wl, seed, variants);
    p.m["obs.trace_overhead_pct." + wl] =
        pct(r.variantS.at("rep obs.TraceSession"), r.baselineS);
    p.m["obs.monitor_overhead_pct." + wl] =
        pct(r.variantS.at("rep obs.MonitorSession"), r.baselineS);
    const Rep &t = r.traced;
    const double events = t.counters.at("sim.events");
    p.m["sim.events." + wl] = events;
    p.m["sim.ns_per_event." + wl] = t.timedS * 1e9 / events;
    p.m["net.flows." + wl] = t.counters.at("net.flows");
    p.m["net.peak_flows." + wl] = t.counters.at("net.peak_flows");
    {
        Span s(&p.rec, "sim.dispatch drive");
        p.m["sim.dispatch_ns." + wl] =
            dispatchNs(static_cast<uint64_t>(events));
    }
    {
        Span s(&p.rec, "sim.resume drive");
        p.m["sim.resume_ns." + wl] = resumeNs(static_cast<uint64_t>(events));
    }
    return r;
}

/** Replayed flows per net drive (capped: the rate is per flow). */
uint64_t
replayFlows(double flows)
{
    return std::min<uint64_t>(static_cast<uint64_t>(flows), 200000);
}

void
serveSpikePass(Pass &p, uint64_t seed)
{
    const Rep t = clusterReps(p, "serve-spike", seed, {}).traced;
    p.m["serve.shed_share"] = t.counters.at("serve.shed_share");
    std::vector<sim::Request> stream;
    {
        Span s(&p.rec, "sim.ArrivalProcess drive");
        p.m["arrival.ns_per_request"] = arrivalNs(seed, stream);
    }
    {
        Span s(&p.rec, "serve.Admission drive");
        p.m["serve.admit_ns_per_request"] = admitNs(seed, stream);
    }
    Span s(&p.rec, "net.NetFabric replay");
    p.m["net.us_per_flow.serve-spike"] =
        serveNet(static_cast<int>(t.counters.at("net.peak_flows")),
                 replayFlows(t.counters.at("net.flows")))
            .usPerFlow;
}

void
fleetDayPass(Pass &p, uint64_t seed)
{
    RunOptions nosched;
    nosched.scheduling = false;
    const Paired r =
        clusterReps(p, "fleet-day", seed, {{"rep scheduling off", nosched}});
    const Rep &t = r.traced;
    p.m["sched.overhead_pct"] =
        pct(r.baselineS, r.variantS.at("rep scheduling off"));
    p.m["sched.preemptions"] = t.counters.at("sched.preemptions");
    p.m["pipeline.items"] = t.counters.at("pipeline.items");
    p.m["georep.versions"] = t.counters.at("georep.versions");
    Replay net;
    {
        Span s(&p.rec, "net.NetFabric replay");
        net = fleetNet(static_cast<int>(t.counters.at("net.peak_flows")),
                       replayFlows(t.counters.at("net.flows")));
    }
    p.m["net.us_per_flow.fleet-day"] = net.usPerFlow;
    // What is left of the timed phase once the engine and the fabric
    // (as measured in isolation; the replay's own engine events taken
    // out of its per-flow cost) are removed: an estimate of the
    // dataflow code's own time (NPE stage bodies, sched, georep).
    const double dispatch_ns = p.m["sim.dispatch_ns.fleet-day"];
    const double fabric_us =
        net.usPerFlow - net.eventsPerFlow * dispatch_ns * 1e-3;
    p.m["dataflow.self_s_est"] =
        t.timedS - p.m["sim.events.fleet-day"] * dispatch_ns * 1e-9 -
        p.m["net.flows.fleet-day"] * fabric_us * 1e-6;
}

void
driftRetrainPass(Pass &p, uint64_t seed)
{
    const Rep t = pairedReps(p, "drift-retrain", seed, {}).traced;
    const double samples = t.counters.at("nn.samples");
    const double train_s = spanSeconds(p.rec, "nn.fullTrain") +
                           spanSeconds(p.rec, "nn.fineTune");
    p.m["nn.samples"] = samples;
    p.m["nn.train_s"] = train_s;
    p.m["nn.eval_s"] = spanSeconds(p.rec, "nn.evaluate");
    p.m["nn.us_per_sample"] = train_s * 1e6 / samples;
    p.m["data.drift_s"] = spanSeconds(p.rec, "data.advanceDays");
    p.m["data.curate_s"] = spanSeconds(p.rec, "data.curate");
    p.m["delta.encode_ms"] = spanSeconds(p.rec, "delta.encode") * 1e3;
    p.m["delta.apply_ms"] = spanSeconds(p.rec, "delta.apply") * 1e3;
    p.m["delta.bytes"] = t.counters.at("delta.bytes");
    {
        Span s(&p.rec, "nn kernel drives");
        nnKernels(p.m, seed);
    }
    Span s(&p.rec, "storage.codec drive");
    codec(p.m, seed);
}

} // namespace

int
runTraced(const std::string &workload, uint64_t seed,
          const std::string &spans_path)
{
    Pass p;
    {
        Span root(&p.rec, workload.c_str());
        if (workload == "serve-spike")
            serveSpikePass(p, seed);
        else if (workload == "fleet-day")
            fleetDayPass(p, seed);
        else if (workload == "drift-retrain")
            driftRetrainPass(p, seed);
        else
            throw std::invalid_argument("unknown workload: " + workload);
    }
    p.rec.printTable(stdout, workload + " (seed " + std::to_string(seed) +
                                 ")");
    if (!spans_path.empty()) {
        std::FILE *f = std::fopen(spans_path.c_str(), "w");
        if (f == nullptr)
            throw std::runtime_error("cannot write " + spans_path);
        p.rec.writeJson(f);
        std::fclose(f);
    }
    std::printf("{\"workload\": \"%s\", \"identical\": {", workload.c_str());
    size_t i = 0;
    for (const auto &[k, v] : p.identical)
        std::printf("%s\"%s\": %s", i++ ? ", " : "", k.c_str(),
                    v ? "true" : "false");
    std::printf("}, \"metrics\": {");
    i = 0;
    for (const auto &[k, v] : p.m)
        std::printf("%s\"%s\": %.17g", i++ ? ", " : "", k.c_str(), v);
    std::printf("}}\n");
    return 0;
}

} // namespace ndpb
