/**
 * @file
 * Trace utility: record benchmark profiles to trace files, inspect
 * them, and replay them through the secure-processor timing model.
 *
 *   trace_tool record <bench> <path> [ops]
 *   trace_tool info   <path>
 *   trace_tool replay <path> [model] [instructions]
 *
 * Models: baseline | xom | otp (default otp).
 */

#include <iostream>
#include <string>

#include "sim/profiles.hh"
#include "sim/system.hh"
#include "sim/trace_io.hh"
#include "util/strutil.hh"

using namespace secproc;

namespace
{

int
usage()
{
    std::cerr << "usage:\n"
              << "  trace_tool record <bench> <path> [ops]\n"
              << "  trace_tool info   <path>\n"
              << "  trace_tool replay <path> [baseline|xom|otp] "
                 "[instructions]\n";
    return 2;
}

secure::SecurityModel
parseModel(const std::string &name)
{
    if (name == "baseline")
        return secure::SecurityModel::Baseline;
    if (name == "xom")
        return secure::SecurityModel::Xom;
    if (name == "otp")
        return secure::SecurityModel::OtpSnc;
    std::cerr << "unknown model '" << name << "'\n";
    std::exit(2);
}

int
record(const std::string &bench, const std::string &path, uint64_t ops)
{
    sim::SyntheticWorkload workload(sim::benchmarkProfile(bench), 128);
    sim::recordTrace(path, workload, ops);
    std::cout << "recorded " << ops << " ops of '" << bench << "' to "
              << path << "\n";
    return 0;
}

int
info(const std::string &path)
{
    const sim::TraceImage image = sim::readTrace(path);
    std::cout << "trace: " << path << "\n"
              << "profile: " << image.profile.name << "\n"
              << "ops: " << image.ops.size() << "\n"
              << "regions:\n";
    for (const auto &region : image.profile.regions) {
        std::cout << "  base " << util::formatHex(region.base)
                  << "  footprint "
                  << util::formatBytes(region.footprint)
                  << (region.plaintext ? "  (plaintext)" : "") << "\n";
    }
    uint64_t loads = 0, stores = 0, branches = 0;
    for (const auto &op : image.ops) {
        loads += op.cls == sim::OpClass::Load;
        stores += op.cls == sim::OpClass::Store;
        branches += op.cls == sim::OpClass::Branch;
    }
    // An empty trace has no mix to report: counts only.
    const auto share = [&image](uint64_t count) -> std::string {
        if (image.ops.empty())
            return "";
        const double n = static_cast<double>(image.ops.size());
        return " (" + util::formatDouble(100.0 * count / n, 1) + "%)";
    };
    std::cout << "loads: " << loads << share(loads) << "\n"
              << "stores: " << stores << share(stores) << "\n"
              << "branches: " << branches << share(branches) << "\n";
    return 0;
}

int
replay(const std::string &path, secure::SecurityModel model,
       uint64_t instructions)
{
    sim::TraceWorkload workload(path);
    sim::System system(sim::paperConfig(model), workload);
    system.run(instructions);
    const auto stats = [&] {
        system.beginMeasurement();
        return system.stats();
    };
    (void)stats;
    std::cout << "model: " << secure::securityModelName(model) << "\n"
              << "instructions: " << instructions << "\n"
              << "cycles: " << system.core().cycles() << "\n"
              << "ipc: "
              << util::formatDouble(
                     static_cast<double>(system.core().instructions()) /
                         static_cast<double>(system.core().cycles()),
                     3)
              << "\n"
              << "trace wraps: " << workload.wraps() << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string command = argv[1];
    if (command == "record") {
        if (argc < 4)
            return usage();
        const uint64_t ops =
            argc > 4 ? util::parseU64(argv[4], "ops") : 1'000'000;
        return record(argv[2], argv[3], ops);
    }
    if (command == "info")
        return info(argv[2]);
    if (command == "replay") {
        const secure::SecurityModel model =
            argc > 3 ? parseModel(argv[3])
                     : secure::SecurityModel::OtpSnc;
        const uint64_t instructions =
            argc > 4 ? util::parseU64(argv[4], "instructions") : 1'000'000;
        return replay(argv[2], model, instructions);
    }
    return usage();
}
