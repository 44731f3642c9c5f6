#include "workloads.h"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "core/delta.h"
#include "core/sched/cluster.h"
#include "data/backbone.h"
#include "data/profiles.h"
#include "nn/trainer.h"
#include "obs/monitor.h"
#include "obs/trace.h"
#include "spans.h"

namespace ndpb {

using namespace ndp;
using core::sched::Cluster;
using core::sched::ClusterReport;
using core::sched::JobDesc;
using core::sched::JobKind;
using core::sched::JobReport;

uint64_t
mix(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt * 0xd1b54a32d192ed03ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

namespace {

constexpr int kFleetStores = 20;
// Short enough that a run holds ~20 drift-retrain repetitions: the
// reported slow-side decile needs that many to be steady.
constexpr int kFullTrainEpochs = 4;
constexpr int kFineTuneEpochs = 2;
/** Parameters of the frozen ResNet50-scale vector the tuned head is
 *  embedded in for delta encoding. */
constexpr size_t kFrozenParams = 25600000;

/** Uniform double in [lo, hi) from a mixed seed (no Rng state). */
double
unitFrom(uint64_t seed, uint64_t salt, double lo, double hi)
{
    return lo + (hi - lo) * static_cast<double>(mix(seed, salt) >> 11) *
                    0x1.0p-53;
}

} // namespace

void
Outputs::add(const std::string &name, uint64_t v)
{
    fields.emplace_back(name, v);
}

void
Outputs::addF(const std::string &name, double v)
{
    fields.emplace_back(name, std::bit_cast<uint64_t>(v));
}

// ---------------------------------------------------------------------
// Inputs

core::serve::ServeConfig
serveSpikeConfig(uint64_t seed)
{
    // bench_ext_service's headline scenario: 1M requests from 2M users,
    // +/-35% diurnal swing (two cycles), a 4x flash crowd for a tenth
    // of the run, 64-deep admission queues.
    core::serve::ServeConfig cfg;
    cfg.arrivals.nRequests = 1000000;
    cfg.arrivals.nUsers = 2000000;
    cfg.arrivals.baseRatePerSec = 900.0;
    cfg.arrivals.seed = mix(seed, 1);
    const double span = static_cast<double>(cfg.arrivals.nRequests) /
                        cfg.arrivals.baseRatePerSec;
    cfg.arrivals.diurnalAmplitude = 0.35;
    cfg.arrivals.diurnalPeriodS = span / 2.0;
    cfg.arrivals.spikes.push_back(
        sim::SpikeSegment{0.2 * span, 0.1 * span, 4.0});
    cfg.admission.queueCap = 64;
    return cfg;
}

core::ClusterSpec
serveSpikeSpec(uint64_t seed)
{
    const core::serve::ServeConfig cfg = serveSpikeConfig(seed);
    const double span = static_cast<double>(cfg.arrivals.nRequests) /
                        cfg.arrivals.baseRatePerSec;
    core::ClusterSpec spec;
    spec.nStores = kServeStores;
    // Cluster fabric node order: stores, Tuner, front end, then the
    // aggregate client node. The ingress degrade targets the client
    // (standalone runServing numbers the client 0, which here would be
    // store 0's link instead).
    const int client_node = kServeStores + 2;
    spec.faults.seed = mix(seed, 2);
    spec.faults.crashStore(5, 0.22 * span)
        .degradeLink(client_node, 0.15 * span, 0.15 * span, 0.3);
    return spec;
}

core::ClusterSpec
fleetDaySpec(bool scheduling)
{
    core::ClusterSpec spec;
    spec.nStores = kFleetStores;
    spec.scheduling = scheduling;
    spec.wanSites = {{"eu", 1.0, 0.05}, {"ap", 0.6, 0.11}};
    return spec;
}

namespace {

/** The 100-class (ImageNet-1K-shaped) and 200-class (ImageNet-21K-
 *  shaped) profiles with seed-derived world seeds and fixed epochs. */
std::vector<data::DatasetProfile>
driftProfiles(uint64_t seed)
{
    std::vector<data::DatasetProfile> ps = {data::imagenet1kProfile(),
                                            data::imagenet21kProfile()};
    for (size_t p = 0; p < ps.size(); ++p) {
        ps[p].world.seed = mix(seed, 10 + p);
        // Fixed epoch counts (early stopping off): with the paper's
        // convergence rule the epochs run vary ~2x between seeds, and
        // so would the work a repetition does.
        ps[p].fullTrainCfg.maxEpochs = kFullTrainEpochs;
        ps[p].fullTrainCfg.convergePatience = 0;
        ps[p].fineTuneCfg.maxEpochs = kFineTuneEpochs;
        ps[p].fineTuneCfg.convergePatience = 0;
    }
    return ps;
}

/** Owns the obs session of a Cluster-based run (installed before the
 *  Cluster is built, which is when the Cluster binds to it). */
struct ObsSession
{
    void
    open(Obs obs)
    {
        if (obs == Obs::Trace)
            trace = std::make_unique<obs::TraceSession>();
        else if (obs == Obs::Monitor)
            monitor = std::make_unique<obs::MonitorSession>();
    }

    std::unique_ptr<obs::TraceSession> trace;
    std::unique_ptr<obs::MonitorSession> monitor;
};

void
addNet(Outputs &o, const ClusterReport &r)
{
    o.addF("net.bytes_moved", r.net.bytesMoved);
    o.add("net.flows", r.net.flowsCompleted);
    o.addF("net.ingress_bytes", r.net.ingressBytes);
    o.addF("net.wan_bytes", r.net.wanBytes);
    o.addF("sim.seconds", r.seconds);
}

std::map<std::string, double>
clusterCounters(const ClusterReport &r)
{
    return {{"sim.events", static_cast<double>(r.events)},
            {"net.flows", static_cast<double>(r.net.flowsCompleted)},
            {"net.peak_flows",
             static_cast<double>(r.net.peakConcurrentFlows)}};
}

// ---------------------------------------------------------------------
// serve-spike

class ServeSpike : public Workload
{
  public:
    explicit ServeSpike(const RunOptions &opt) : opt_(opt) {}

    void
    setup() override
    {
        obs_.open(opt_.obs);
        Span s(opt_.spans, "setup");
        core::ClusterSpec spec = serveSpikeSpec(opt_.seed);
        spec.scheduling = opt_.scheduling;
        JobDesc d;
        d.name = "front";
        d.kind = JobKind::OpenLoopServe;
        for (int i = 0; i < kServeStores; ++i)
            d.stores.push_back(i);
        d.serve = serveSpikeConfig(opt_.seed);
        offered_ = d.serve.arrivals.nRequests;
        {
            Span c(opt_.spans, "sched::Cluster()");
            cluster_ = std::make_unique<Cluster>(spec);
        }
        Span c(opt_.spans, "Cluster::submit");
        cluster_->submit(d);
    }

    double
    run() override
    {
        Span s(opt_.spans, "Cluster::run");
        rep_ = cluster_->run();
        return static_cast<double>(offered_);
    }

    Outputs
    outputs() const override
    {
        const JobReport &j = rep_.jobs.at(0);
        Outputs o;
        o.add("serve.offered", j.offered);
        o.add("serve.accepted", j.offered - j.shed);
        o.add("serve.goodput", j.goodput);
        o.add("serve.shed", j.shed);
        o.add("serve.redispatched", j.redispatched);
        o.add("serve.abandoned", j.abandoned);
        o.add("serve.uploads", j.uploads);
        o.add("serve.peak_queue_depth",
              static_cast<uint64_t>(j.peakQueueDepth));
        o.addF("serve.p50_ms", j.p50Ms);
        o.addF("serve.p95_ms", j.p95Ms);
        o.addF("serve.p99_ms", j.p99Ms);
        o.addF("serve.p999_ms", j.p999Ms);
        o.addF("serve.mean_ms", j.meanMs);
        o.addF("serve.makespan_s", j.makespanS);
        o.add("faults.crashes", rep_.faults.crashes);
        o.add("faults.link_degrades", rep_.faults.linkDegrades);
        addNet(o, rep_);
        return o;
    }

    std::vector<std::string>
    check() const override
    {
        std::vector<std::string> v;
        const JobReport &j = rep_.jobs.at(0);
        if (j.offered != offered_)
            v.push_back("offered != requests generated");
        if (j.shed > j.offered || j.goodput > j.offered - j.shed)
            v.push_back("serving ledger: goodput > accepted");
        if (j.goodput == 0)
            v.push_back("no goodput");
        if (!(j.p50Ms <= j.p95Ms && j.p95Ms <= j.p99Ms &&
              j.p99Ms <= j.p999Ms))
            v.push_back("percentile ladder not monotone");
        if (rep_.faults.crashes != 1)
            v.push_back("store crash not injected");
        return v;
    }

    std::map<std::string, double>
    counters() const override
    {
        auto c = clusterCounters(rep_);
        const JobReport &j = rep_.jobs.at(0);
        c["serve.shed_share"] = static_cast<double>(j.shed) /
                                static_cast<double>(j.offered);
        return c;
    }

  private:
    RunOptions opt_;
    ObsSession obs_;
    std::unique_ptr<Cluster> cluster_;
    uint64_t offered_ = 0;
    ClusterReport rep_;
};

// ---------------------------------------------------------------------
// fleet-day

class FleetDay : public Workload
{
  public:
    static constexpr uint64_t kImagesPerJob = 40000000;

    explicit FleetDay(const RunOptions &opt) : opt_(opt) {}

    void
    setup() override
    {
        obs_.open(opt_.obs);
        Span s(opt_.spans, "setup");
        const uint64_t seed = opt_.seed;
        JobDesc ft;
        ft.name = "ft-dmp";
        ft.kind = JobKind::FtDmpTrain;
        for (int i = 0; i < 10; ++i) {
            ft.stores.push_back(i);
            // Seeded per-store GPU heterogeneity (+/-10%).
            ft.train.storeSpeedFactor.push_back(
                unitFrom(seed, 100 + static_cast<uint64_t>(i), 0.9, 1.1));
        }
        ft.nImages = kImagesPerJob;
        ft.train.nRun = 3;
        ft.train.pipelined = true;

        JobDesc inf;
        inf.name = "offline";
        inf.kind = JobKind::OfflineInfer;
        for (int i = 10; i < kFleetStores; ++i)
            inf.stores.push_back(i);
        inf.nImages = kImagesPerJob;
        inf.submitAtS = unitFrom(seed, 3, 0.0, 5.0);

        JobDesc geo;
        geo.name = "georep";
        geo.kind = JobKind::GeoReplicate;
        geo.georep.nRounds = 40;
        geo.georep.lossProbability = 0.02;
        geo.georep.seed = mix(seed, 4);

        items_ = static_cast<double>(ft.nImages + inf.nImages);
        {
            Span c(opt_.spans, "sched::Cluster()");
            cluster_ = std::make_unique<Cluster>(
                fleetDaySpec(opt_.scheduling));
        }
        Span c(opt_.spans, "Cluster::submit");
        cluster_->submit(ft);
        cluster_->submit(inf);
        cluster_->submit(geo);
    }

    double
    run() override
    {
        Span s(opt_.spans, "Cluster::run");
        rep_ = cluster_->run();
        return items_;
    }

    /** Scheduler accounting (preemptions, waits, charged GPU time) is
     *  left out: it is zero with scheduling off, and the sched on/off
     *  pair must compare equal on everything the jobs produced. */
    Outputs
    outputs() const override
    {
        Outputs o;
        for (const JobReport &j : rep_.jobs) {
            const std::string p = j.name + ".";
            o.addF(p + "start_s", j.startS);
            o.addF(p + "makespan_s", j.makespanS);
            o.add(p + "items_done", j.stages.itemsDone);
            o.addF(p + "last_item_s", j.stages.lastItemS);
            o.addF(p + "wire_bytes", j.stages.wireBytes);
            o.addF(p + "ship_bytes", j.stages.shipBytes);
        }
        const JobReport &g = rep_.jobs.at(2);
        o.add("georep.versions", static_cast<uint64_t>(g.publishedVersions));
        o.add("georep.min_site_version",
              static_cast<uint64_t>(g.minSiteVersion));
        o.addF("georep.wan_bytes", g.geoWanBytes);
        o.add("georep.retransmits", g.geoRetransmits);
        o.add("georep.checkpoint_fallbacks", g.geoCheckpointFallbacks);
        o.addF("georep.staleness_p95_s", g.stalenessP95S);
        o.addF("georep.staleness_max_s", g.stalenessMaxS);
        addNet(o, rep_);
        return o;
    }

    std::vector<std::string>
    check() const override
    {
        std::vector<std::string> v;
        if (rep_.jobs.size() != 3)
            return {"expected 3 job reports"};
        for (int i : {0, 1})
            if (rep_.jobs[static_cast<size_t>(i)].stages.itemsDone !=
                kImagesPerJob)
                v.push_back(rep_.jobs[static_cast<size_t>(i)].name +
                            ": images lost or duplicated");
        const JobReport &g = rep_.jobs[2];
        if (g.publishedVersions != 40 || g.minSiteVersion != 40)
            v.push_back("geo-replication did not converge");
        for (const JobReport &j : rep_.jobs)
            if (!(j.makespanS > 0.0))
                v.push_back(j.name + ": empty makespan");
        return v;
    }

    std::map<std::string, double>
    counters() const override
    {
        auto c = clusterCounters(rep_);
        uint64_t items = 0;
        uint64_t preempt = 0;
        for (const JobReport &j : rep_.jobs) {
            items += j.stages.itemsDone;
            preempt += j.preemptions;
        }
        c["pipeline.items"] = static_cast<double>(items);
        c["sched.preemptions"] = static_cast<double>(preempt);
        c["georep.versions"] =
            static_cast<double>(rep_.jobs.at(2).publishedVersions);
        return c;
    }

  private:
    RunOptions opt_;
    ObsSession obs_;
    std::unique_ptr<Cluster> cluster_;
    double items_ = 0.0;
    ClusterReport rep_;
};

// ---------------------------------------------------------------------
// drift-retrain

/** Write @p head into the last head.size() entries of @p v. */
void
embedTail(std::vector<float> &v, const std::vector<float> &head)
{
    std::memcpy(v.data() + (v.size() - head.size()), head.data(),
                head.size() * sizeof(float));
}

class DriftRetrain : public Workload
{
  public:
    explicit DriftRetrain(const RunOptions &opt) : opt_(opt) {}

    void
    setup() override
    {
        Span s(opt_.spans, "setup");
        for (const data::DatasetProfile &p : driftProfiles(opt_.seed)) {
            Span w(opt_.spans, "PhotoWorld()");
            Cycle c;
            c.profile = p;
            c.world = std::make_unique<data::PhotoWorld>(p.world);
            cycles_.push_back(std::move(c));
        }
        // The deployed model (a ResNet50-scale frozen vector whose
        // tail holds the classifier head), the Tuner's updated copy
        // and one replica's copy.
        // Only the head changes between versions, so the frozen values
        // never reach the outputs; a cheap uniform fill keeps setup
        // (and with it each repetition) short.
        Span b(opt_.spans, "base parameter vector");
        deployed_.resize(kFrozenParams);
        const uint64_t salt = mix(opt_.seed, 5);
        for (size_t i = 0; i < deployed_.size(); ++i)
            deployed_[i] = static_cast<float>(mix(salt, i) >> 40) *
                               0x1.0p-24f -
                           0.5f;
        updated_ = deployed_;
        replica_ = deployed_;
    }

    double
    run() override
    {
        double samples = 0.0;
        for (size_t i = 0; i < cycles_.size(); ++i)
            samples += runCycle(cycles_[i], i);
        return samples;
    }

    Outputs
    outputs() const override
    {
        Outputs o;
        for (const Cycle &c : cycles_) {
            const std::string p = c.profile.name + ".";
            o.addF(p + "base_top1", c.base.finalTop1());
            o.addF(p + "base_top5", c.base.finalTop5());
            o.add(p + "base_epochs", static_cast<uint64_t>(c.base.epochsRun));
            o.addF(p + "outdated_top1", c.outdated.top1);
            o.addF(p + "outdated_top5", c.outdated.top5);
            o.addF(p + "tuned_top1", c.tuned.finalTop1());
            o.addF(p + "tuned_top5", c.tuned.finalTop5());
            o.add(p + "tuned_epochs",
                  static_cast<uint64_t>(c.tuned.epochsRun));
            o.addF(p + "eval_top1", c.eval.top1);
            o.addF(p + "eval_top5", c.eval.top5);
            o.add(p + "pool_images", c.poolImages);
            o.add(p + "curated_images", c.curatedImages);
            o.add(p + "delta_bytes", c.deltaBytes);
            o.add(p + "delta_changed_params", c.deltaChanged);
            o.add(p + "apply_round_trip", c.roundTrip ? 1 : 0);
        }
        return o;
    }

    std::vector<std::string>
    check() const override
    {
        std::vector<std::string> v;
        for (const Cycle &c : cycles_) {
            if (!c.roundTrip)
                v.push_back(c.profile.name +
                            ": applyDelta replica != updated model");
            if (c.deltaChanged == 0 || c.deltaBytes == 0)
                v.push_back(c.profile.name + ": empty delta");
            if (!(c.eval.top1 > 0.0 && c.eval.top1 <= c.eval.top5))
                v.push_back(c.profile.name + ": top-1 > top-5");
        }
        return v;
    }

    std::map<std::string, double>
    counters() const override
    {
        double samples = 0.0;
        double bytes = 0.0;
        for (const Cycle &c : cycles_) {
            samples += c.samples;
            bytes += static_cast<double>(c.deltaBytes);
        }
        return {{"nn.samples", samples}, {"delta.bytes", bytes}};
    }

  private:
    struct Cycle
    {
        data::DatasetProfile profile;
        std::unique_ptr<data::PhotoWorld> world;
        nn::TrainResult base;
        nn::EvalResult outdated{};
        nn::TrainResult tuned;
        nn::EvalResult eval{};
        uint64_t poolImages = 0;
        uint64_t curatedImages = 0;
        uint64_t deltaBytes = 0;
        uint64_t deltaChanged = 0;
        bool roundTrip = false;
        double samples = 0.0;
    };

    /** One full-train / drift / curate / fine-tune / evaluate /
     *  delta cycle; returns the training samples it ran. */
    double
    runCycle(Cycle &c, size_t idx)
    {
        SpanRecorder *sr = opt_.spans;
        Span cyc(sr, idx == 0 ? "cycle c100" : "cycle c200");
        const data::DatasetProfile &p = c.profile;
        data::PhotoWorld &world = *c.world;
        Rng mrng(mix(opt_.seed, 20 + idx));
        data::VisionModel base(p.world.latentDim, p.featureDim,
                               p.world.maxClasses, mrng);
        nn::Dataset pool, test0;
        {
            Span s(sr, "data.curate");
            pool = world.poolDataset();
            test0 = world.sampleTestSet(p.testSetSize);
        }
        nn::TrainConfig full_cfg = p.fullTrainCfg;
        full_cfg.seed = mix(opt_.seed, 30 + idx);
        {
            Span s(sr, "nn.fullTrain");
            c.base = base.fullTrain(pool, test0, full_cfg);
        }
        {
            Span s(sr, "data.advanceDays");
            world.advanceDays(14);
        }
        nn::Dataset test, curated;
        {
            Span s(sr, "data.curate");
            test = world.sampleTestSet(p.testSetSize);
            curated = world.recencyBiasedDataset(
                world.numImages(), p.curatedRecentShare,
                p.curatedWindowDays);
        }
        {
            Span s(sr, "nn.evaluate");
            c.outdated = nn::evaluate(base, test);
        }
        data::VisionModel tuned = base;
        nn::TrainConfig ft_cfg = p.fineTuneCfg;
        ft_cfg.seed = mix(opt_.seed, 40 + idx);
        {
            Span s(sr, "nn.fineTune");
            c.tuned = tuned.fineTune(curated, test, ft_cfg);
        }
        {
            Span s(sr, "nn.evaluate");
            c.eval = nn::evaluate(tuned, test);
        }
        c.poolImages = pool.size();
        c.curatedImages = curated.size();
        c.samples = static_cast<double>(pool.size()) * c.base.epochsRun +
                    static_cast<double>(curated.size()) *
                        c.tuned.epochsRun;

        // Deploy the base head everywhere, then ship the tuned head.
        const std::vector<float> base_head = core::flattenParams(base.head());
        const std::vector<float> tuned_head =
            core::flattenParams(tuned.head());
        embedTail(deployed_, base_head);
        embedTail(replica_, base_head);
        embedTail(updated_, tuned_head);
        core::ModelDelta d;
        {
            Span s(sr, "delta.encode");
            d = core::encodeDelta(deployed_, updated_);
        }
        bool applied = false;
        {
            Span s(sr, "delta.apply");
            applied = core::applyDelta(d, replica_);
        }
        c.deltaBytes = d.payload.size();
        c.deltaChanged = d.changedParams;
        c.roundTrip =
            applied && std::memcmp(replica_.data(), updated_.data(),
                                   updated_.size() * sizeof(float)) == 0;
        // Re-sync for the next profile's cycle.
        embedTail(deployed_, tuned_head);
        return c.samples;
    }

    RunOptions opt_;
    std::vector<Cycle> cycles_;
    std::vector<float> deployed_;
    std::vector<float> updated_;
    std::vector<float> replica_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const RunOptions &opt)
{
    if (name == "serve-spike")
        return std::make_unique<ServeSpike>(opt);
    if (name == "fleet-day")
        return std::make_unique<FleetDay>(opt);
    if (name == "drift-retrain")
        return std::make_unique<DriftRetrain>(opt);
    throw std::invalid_argument("unknown workload: " + name);
}

} // namespace ndpb
