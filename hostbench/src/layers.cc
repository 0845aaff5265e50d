#include "layers.hh"

#include "crypto/des.hh"
#include "crypto/rsa.hh"
#include "crypto/sha.hh"
#include "mem/cache.hh"
#include "mem/virtual_memory.hh"
#include "secure/integrity.hh"
#include "secure/snc.hh"
#include "sim/system.hh"
#include "util/random.hh"

using namespace secproc;

namespace hostbench
{

const std::vector<LayerMetric> &
layerCatalogue()
{
    static const std::vector<LayerMetric> catalogue = {
        {"sim.run_s", "s"},
        {"sim.instructions", "count"},
        {"sim.cycles", "count"},
        {"sim.workload_ns_per_instr", "ns"},
        {"sim.agent_pumps", "count"},
        {"mem.l1d.accesses", "count"},
        {"mem.l2.accesses", "count"},
        {"mem.l2.misses", "count"},
        {"mem.tlb.misses", "count"},
        {"mem.channel.busy_cycles", "count"},
        {"mem.channel.bg_grants", "count"},
        {"mem.cache_ns_per_access", "ns"},
        {"mem.translate_ns", "ns"},
        {"mem.cache_share", "fraction"},
        {"secure.snc.queries", "count"},
        {"secure.snc.query_misses", "count"},
        {"secure.snc_ns_per_query", "ns"},
        {"secure.mac_lookup_ns", "ns"},
        {"crypto.des_mb_per_s", "MB/s"},
        {"crypto.sha256_mb_per_s", "MB/s"},
        {"crypto.rsa_sign_us", "us"},
        {"crypto.rsa_verify_us", "us"},
        {"crypto.rsa_unwrap_us", "us"},
        {"crypto.engine_ops", "count"},
        {"update.advance_s", "s"},
        {"update.build_ms", "ms"},
        {"update.build_delta_ms", "ms"},
        {"update.verify_ms", "ms"},
        {"update.reconstruct_ms", "ms"},
        {"update.installs", "count"},
        {"update.delta_installs", "count"},
        {"update.resumes", "count"},
        {"update.failed", "count"},
        {"ota.chunks_sent", "count"},
        {"ota.chunks_lost", "count"},
        {"ota.chunks_skipped", "count"},
        {"ota.send_us", "us"},
        {"fleet.run_s", "s"},
        {"fleet.publish_s", "s"},
        {"fleet.device_eval_ns", "ns"},
        {"fleet.ground_truth_s", "s"},
        {"fleet.devices_offered", "count"},
        {"fleet.waves", "count"},
        {"unattributed_s", "s"},
        {"trace.overhead_s", "s"},
        {"trace.spans", "count"},
    };
    return catalogue;
}

void
addMachineCounters(const obs::MetricsSnapshot &snapshot,
                   LayerValues &values)
{
    auto read = [&](const char *name) {
        return snapshot.find(name) == nullptr ? 0.0
                                              : snapshot.value(name);
    };
    values["sim.instructions"] += read("core.instructions");
    values["sim.cycles"] += read("core.cycles");
    values["mem.l1d.accesses"] += read("l1d.hits") + read("l1d.misses");
    values["mem.l2.accesses"] += read("l2.accesses");
    values["mem.l2.misses"] += read("l2.misses");
    values["mem.tlb.misses"] += read("mem.tlb.misses");
    values["mem.channel.busy_cycles"] += read("channel.busy_cycles");
    values["mem.channel.bg_grants"] += read("channel.bg.grants");
    values["secure.snc.queries"] +=
        read("otp-snc.query_hits") + read("otp-snc.query_misses");
    values["secure.snc.query_misses"] += read("otp-snc.query_misses");
    values["crypto.engine_ops"] += read("crypto.operations");
}

namespace
{

/** Written with each probe's results so the probed calls stay live. */
volatile uint64_t g_probe_sink = 0;

uint64_t
nsSince(Clock::time_point start)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - start)
            .count());
}

} // namespace

void
probeMachineLayers(const std::vector<sim::WorkloadProfile> &profiles,
                   uint64_t ops_per_profile, LayerValues &values)
{
    const sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    uint64_t gen_ns = 0, gen_ops = 0;
    uint64_t cache_ns = 0, translate_ns = 0, snc_ns = 0, mac_ns = 0;
    uint64_t accesses = 0, miss_lines = 0;
    uint64_t sink = 0;

    for (const sim::WorkloadProfile &profile : profiles) {
        sim::SyntheticWorkload workload(profile, config.l2.line_size);
        std::vector<uint64_t> addrs;
        std::vector<uint8_t> stores;
        addrs.reserve(ops_per_profile);
        stores.reserve(ops_per_profile);

        Clock::time_point start = Clock::now();
        for (uint64_t i = 0; i < ops_per_profile; ++i) {
            const sim::TraceOp &op = workload.next();
            if (op.cls == sim::OpClass::Load ||
                op.cls == sim::OpClass::Store) {
                addrs.push_back(op.addr);
                stores.push_back(op.cls == sim::OpClass::Store);
            }
        }
        gen_ns += nsSince(start);
        gen_ops += ops_per_profile;

        mem::Cache l1d(config.l1d);
        start = Clock::now();
        for (size_t i = 0; i < addrs.size(); ++i) {
            if (!l1d.access(addrs[i], stores[i]))
                sink += l1d.fill(addrs[i], stores[i], 0).has_value();
        }
        cache_ns += nsSince(start);
        accesses += addrs.size();

        // Page tables are populated by a first pass; the timed pass
        // is the steady-state translate (micro-TLB + radix walk).
        mem::VirtualMemory vm;
        for (const uint64_t addr : addrs)
            sink += vm.translate(1, addr);
        start = Clock::now();
        for (const uint64_t addr : addrs)
            sink += vm.translate(1, addr);
        translate_ns += nsSince(start);

        // The L2-miss line stream the protection engine would see.
        mem::Cache l2(config.l2);
        std::vector<uint64_t> lines;
        for (const uint64_t addr : addrs) {
            if (!l2.access(addr, false)) {
                l2.fill(addr, false, 0);
                lines.push_back(l2.lineAlign(addr));
            }
        }
        if (lines.empty())
            continue;
        miss_lines += lines.size();

        secure::SequenceNumberCache snc(config.protection.snc);
        start = Clock::now();
        for (const uint64_t line : lines) {
            if (!snc.query(line).has_value())
                sink += snc.install(line, 1).installed;
        }
        snc_ns += nsSince(start);

        secure::IntegrityConfig integrity;
        integrity.mode = secure::IntegrityMode::MacBlocking;
        integrity.line_size = config.l2.line_size;
        secure::IntegrityEngine macs(integrity);
        for (const uint64_t line : lines)
            macs.storeMac(line, secure::LineMac{});
        start = Clock::now();
        for (const uint64_t line : lines)
            sink += macs.storedMac(line).has_value();
        mac_ns += nsSince(start);
    }

    g_probe_sink = sink;
    auto per = [](uint64_t ns, uint64_t n) {
        return n == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(n);
    };
    values["sim.workload_ns_per_instr"] = per(gen_ns, gen_ops);
    values["mem.cache_ns_per_access"] = per(cache_ns, accesses);
    values["mem.translate_ns"] = per(translate_ns, accesses);
    values["secure.snc_ns_per_query"] = per(snc_ns, miss_lines);
    values["secure.mac_lookup_ns"] = per(mac_ns, miss_lines);
}

void
probeCrypto(uint64_t seed, LayerValues &values)
{
    constexpr size_t kBytes = 1 << 20;
    constexpr int kReps = 4;
    std::vector<uint8_t> in(kBytes, 0x5A), out(kBytes);

    const crypto::Des des(0x0123'4567'89AB'CDEFull ^ seed);
    Clock::time_point start = Clock::now();
    for (int r = 0; r < kReps; ++r)
        des.encryptBlocks(in.data(), out.data(), kBytes / 8);
    values["crypto.des_mb_per_s"] =
        kReps * (kBytes / 1e6) / secondsSince(start);

    uint8_t sink = out[7];
    start = Clock::now();
    for (int r = 0; r < kReps * 4; ++r)
        sink ^= crypto::Sha256::digest(in.data(), kBytes)[r % 32];
    values["crypto.sha256_mb_per_s"] =
        kReps * 4 * (kBytes / 1e6) / secondsSince(start);

    util::Rng rng(seed ^ 0xC0FFEE);
    const crypto::RsaKeyPair key = crypto::rsaGenerate(512, rng);
    const std::vector<uint8_t> digest(32, 0xA5);
    constexpr int kOps = 200;

    std::vector<uint8_t> signature;
    start = Clock::now();
    for (int i = 0; i < kOps; ++i)
        signature = crypto::rsaSignDigest(key.priv, digest);
    values["crypto.rsa_sign_us"] = secondsSince(start) * 1e6 / kOps;

    bool verified = true;
    start = Clock::now();
    for (int i = 0; i < kOps; ++i)
        verified &= crypto::rsaVerifyDigest(key.pub, digest, signature);
    values["crypto.rsa_verify_us"] = secondsSince(start) * 1e6 / kOps;

    const std::vector<uint8_t> capsule =
        crypto::rsaWrap(key.pub, std::vector<uint8_t>(8, 0x3C), rng);
    bool unwrapped = true;
    start = Clock::now();
    for (int i = 0; i < kOps; ++i)
        unwrapped &= crypto::rsaUnwrap(key.priv, capsule).has_value();
    values["crypto.rsa_unwrap_us"] = secondsSince(start) * 1e6 / kOps;

    g_probe_sink = sink ^ verified ^ unwrapped;
}

void
deriveCacheShare(LayerValues &values)
{
    const double run_s = values["sim.run_s"];
    const double accesses =
        values["mem.l1d.accesses"] + values["mem.l2.accesses"];
    values["mem.cache_share"] =
        run_s > 0.0 ? accesses * values["mem.cache_ns_per_access"] *
                          1e-9 / run_s
                    : 0.0;
}

} // namespace hostbench
