/**
 * @file
 * Per-layer ledger of the traced run: the catalogue of layer metrics
 * (reported on every workload; 0 where the workload leaves a layer
 * idle) and standalone probes that time one layer's public functions
 * on inputs replayed from the workload.
 */

#ifndef HOSTBENCH_LAYERS_HH
#define HOSTBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hh"
#include "obs/metrics.hh"
#include "sim/workload.hh"

namespace hostbench
{

struct LayerMetric
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric, in report order. */
const std::vector<LayerMetric> &layerCatalogue();

/** Layer values one workload measured, keyed by catalogue name. */
using LayerValues = std::map<std::string, double>;

/**
 * Add the machine counters of one System's registry snapshot
 * (sim/mem/secure/crypto counts) into @p values.
 */
void addMachineCounters(const secproc::obs::MetricsSnapshot &snapshot,
                        LayerValues &values);

/**
 * Replay @p profiles' instruction streams standalone and time the
 * workload generator, the L1D cache, VM translation, the SNC and
 * the MAC table on them (sim.workload_ns_per_instr,
 * mem.cache_ns_per_access, mem.translate_ns,
 * secure.snc_ns_per_query, secure.mac_lookup_ns).
 */
void probeMachineLayers(
    const std::vector<secproc::sim::WorkloadProfile> &profiles,
    uint64_t ops_per_profile, LayerValues &values);

/** DES and SHA-256 throughput and RSA-512 sign/verify/unwrap. */
void probeCrypto(uint64_t seed, LayerValues &values);

/**
 * mem.cache_share: estimated cache time (accesses x ns/access) over
 * sim.run_s. Call after the counters and probes are in.
 */
void deriveCacheShare(LayerValues &values);

} // namespace hostbench

#endif // HOSTBENCH_LAYERS_HH
