/**
 * @file
 * Experiment-binary flag parsing.
 */

#include "exp/cli.hh"

#include <cstdlib>
#include <iostream>

#include "util/logging.hh"
#include "util/strutil.hh"

namespace secproc::exp
{

bool
flag(const std::string &arg, const char *name)
{
    return arg == name;
}

bool
flagValue(const std::string &arg, const char *prefix,
          std::string *value)
{
    if (arg.rfind(prefix, 0) != 0)
        return false;
    *value = arg.substr(std::string(prefix).size());
    fatal_if(value->empty(), prefix, " needs a value");
    return true;
}

bool
flagU64(const std::string &arg, const char *prefix, uint64_t *value)
{
    std::string text;
    if (!flagValue(arg, prefix, &text))
        return false;
    // parseU64's diagnostics name the flag without the '='.
    std::string name(prefix);
    if (!name.empty() && name.back() == '=')
        name.pop_back();
    *value = util::parseU64(text, name);
    return true;
}

std::string
traceOutFromEnvironment()
{
    const char *path = std::getenv("SECPROC_TRACE");
    return path == nullptr ? "" : path;
}

BenchCli
parseBenchCli(int argc, char **argv)
{
    return parseBenchCli(argc, argv, nullptr);
}

BenchCli
parseBenchCli(int argc, char **argv,
              const std::function<bool(const std::string &)> &extra,
              const std::string &extra_help)
{
    BenchCli cli;
    cli.runner = RunnerOptions::fromEnvironment();
    cli.options = RunOptions::fromEnvironment();

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        uint64_t n = 0;
        if (flag(arg, "--help") || flag(arg, "-h")) {
            std::cout
                << "usage: " << argv[0] << " [options]\n"
                << "  --threads=N   parallel grid cells "
                   "(0 = all cores; also SECPROC_THREADS)\n"
                << "  --json[=PATH] write the JSON report "
                   "(default BENCH_<name>.json)\n"
                << "  --no-json     print the table only\n"
                << "  --warmup=N    warm-up instructions per cell "
                   "(also SECPROC_WARMUP)\n"
                << "  --measure=N   measured instructions per cell "
                   "(also SECPROC_MEASURE)\n"
                << extra_help;
            std::exit(0);
        } else if (flagU64(arg, "--threads=", &n)) {
            cli.runner.threads = static_cast<unsigned>(n);
        } else if (flag(arg, "--json")) {
            cli.write_json = true;
        } else if (flagValue(arg, "--json=", &cli.json_path)) {
            cli.write_json = true;
        } else if (flag(arg, "--no-json")) {
            cli.write_json = false;
        } else if (flagU64(arg, "--warmup=",
                           &cli.options.warmup_instructions)) {
        } else if (flagU64(arg, "--measure=",
                           &cli.options.measure_instructions)) {
        } else if (extra != nullptr && extra(arg)) {
        } else {
            fatal("unknown option '", arg, "' (try --help)");
        }
    }
    return cli;
}

} // namespace secproc::exp
