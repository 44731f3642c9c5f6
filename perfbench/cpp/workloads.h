/**
 * @file
 * The benchmark's three workloads, each driven only through the
 * repo's public entry points and split into the phases the benchmark
 * times: setup (inputs and the system under test), the timed phase,
 * and the canonical outputs that are fingerprinted bit for bit.
 *
 *  - serve-spike:   one OpenLoopServe job on a 16-store sched::Cluster
 *                   (the engine, hub fabric, arrivals and admission).
 *  - fleet-day:     FT-DMP + offline inference + geo-replication on a
 *                   20-store, two-WAN-site Cluster (NPE stage bodies,
 *                   scheduler hooks, georep, multi-link fabric).
 *  - drift-retrain: the functional continuous-training cycle on the
 *                   100- and 200-class profiles plus delta encode and
 *                   apply at a replica (nn, data, delta codec).
 *
 * Every input is a function of the workload seed through mix(), a
 * fixed integer mix, so a seed means the same inputs on every
 * platform and standard library.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/serve/serve.h"

namespace ndpb {

class SpanRecorder;

/** splitmix64 finalizer over seed and salt: the only seed derivation
 *  the benchmark uses. */
uint64_t mix(uint64_t seed, uint64_t salt);

/** Canonical outputs: ordered (name, 64-bit value) fields, doubles as
 *  their IEEE bits. The fingerprint is a digest over these fields. */
struct Outputs
{
    std::vector<std::pair<std::string, uint64_t>> fields;

    void add(const std::string &name, uint64_t v);
    void addF(const std::string &name, double v);

    bool operator==(const Outputs &) const = default;
};

enum class Obs
{
    Off,
    Trace,
    Monitor,
};

struct RunOptions
{
    uint64_t seed = 1;
    /** ClusterSpec::scheduling (the sched on/off pair of fleet-day). */
    bool scheduling = true;
    /** obs session installed around setup and the timed phase. */
    Obs obs = Obs::Off;
    /** Null = untraced (every end-to-end run). */
    SpanRecorder *spans = nullptr;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the inputs and the system under test (setup_s). */
    virtual void setup() = 0;
    /** The timed phase; returns the units of work it completed. */
    virtual double run() = 0;
    /** Fingerprinted outputs of the timed phase. */
    virtual Outputs outputs() const = 0;
    /** Invariant violations found in the outputs (empty = none). */
    virtual std::vector<std::string> check() const = 0;
    /** Layer counts of the timed phase, for the traced run. */
    virtual std::map<std::string, double> counters() const = 0;
};

/** Throws std::invalid_argument for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const RunOptions &opt);

/** @name Workload inputs, shared with the isolated layer drives
 * @{ */
constexpr int kServeStores = 16;
ndp::core::serve::ServeConfig serveSpikeConfig(uint64_t seed);
ndp::core::ClusterSpec serveSpikeSpec(uint64_t seed);
ndp::core::ClusterSpec fleetDaySpec(bool scheduling);
/** @} */

} // namespace ndpb
