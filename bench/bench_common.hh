/**
 * @file
 * Shared harness plumbing for the bench binaries: command-line
 * parsing, best-of-N timing, and structured JSON emission. bench_util.hh
 * keeps the *domain* helpers (trained tasks, synthetic KBs); this file
 * keeps the *mechanics* every harness otherwise re-implements, so
 * smoke flags and JSON layout stay uniform across benches.
 *
 * Conventions baked in:
 *  - Records carry their CPU steal time (StealClock); a run above
 *    kMaxStealFrac is flagged non-comparable.
 *  - Options are `--name value` or `--name=value`; bare `--name` is a
 *    flag. Unrecognized arguments are fatal at Args::finish(), so a
 *    typo'd sweep never silently measures the defaults.
 *  - Timing is min-of-N after warmup (see minSeconds): the engines are
 *    deterministic, so the fastest repetition is the one least
 *    disturbed by preemption and co-tenant cache traffic, and a fixed
 *    noise quantum biases ratios against short runs — the estimator
 *    the precision ablation documents, now shared.
 *  - JSON goes to the harness's default path unless MNNFAST_BENCH_JSON
 *    overrides it (benchJsonPath), matching every existing bench.
 */

#ifndef MNNFAST_BENCH_BENCH_COMMON_HH
#define MNNFAST_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/logging.hh"
#include "util/timer.hh"

namespace mnnfast::bench {

/**
 * Minimal command-line parser for bench harnesses. Construct over
 * argv, pull typed options, then call finish() — any argument no call
 * consumed is a user error (fatal), so misspelled options fail loudly
 * instead of running the default configuration.
 */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i)
            tokens.emplace_back(argv[i]);
        consumed.assign(tokens.size(), false);
    }

    /** True when bare `--name` appears. */
    bool flag(const char *name)
    {
        const std::string want = std::string("--") + name;
        for (size_t i = 0; i < tokens.size(); ++i) {
            if (tokens[i] == want) {
                consumed[i] = true;
                return true;
            }
        }
        return false;
    }

    /** `--name N` / `--name=N` as size_t, else `def`. */
    size_t sizeOpt(const char *name, size_t def)
    {
        const char *v = rawOpt(name);
        if (!v)
            return def;
        char *end = nullptr;
        const unsigned long long n = std::strtoull(v, &end, 10);
        if (end == v || *end != '\0')
            fatal("--%s expects an unsigned integer, got '%s'", name, v);
        return static_cast<size_t>(n);
    }

    /** `--name X` / `--name=X` as double, else `def`. */
    double floatOpt(const char *name, double def)
    {
        const char *v = rawOpt(name);
        if (!v)
            return def;
        char *end = nullptr;
        const double x = std::strtod(v, &end);
        if (end == v || *end != '\0')
            fatal("--%s expects a number, got '%s'", name, v);
        return x;
    }

    /** `--name S` / `--name=S`, else `def`. */
    const char *strOpt(const char *name, const char *def)
    {
        const char *v = rawOpt(name);
        return v ? v : def;
    }

    /** Fatal if any argument was never consumed by an accessor. */
    void finish() const
    {
        for (size_t i = 0; i < tokens.size(); ++i)
            if (!consumed[i])
                fatal("unrecognized argument '%s'", tokens[i].c_str());
    }

  private:
    /** Locate the value of `--name`, marking its tokens consumed. */
    const char *rawOpt(const char *name)
    {
        const std::string want = std::string("--") + name;
        const std::string pre = want + "=";
        for (size_t i = 0; i < tokens.size(); ++i) {
            if (tokens[i] == want && i + 1 < tokens.size()) {
                consumed[i] = consumed[i + 1] = true;
                return tokens[i + 1].c_str();
            }
            if (tokens[i].compare(0, pre.size(), pre) == 0) {
                consumed[i] = true;
                return tokens[i].c_str() + pre.size();
            }
        }
        return nullptr;
    }

    std::vector<std::string> tokens;
    std::vector<bool> consumed;
};

/**
 * Minimum seconds of `reps` calls to `fn`, after `warmups` untimed
 * calls (page in buffers, grow arenas, settle the LLC set). See the
 * file header for why min-of-N and not the median.
 */
template <typename Fn>
double
minSeconds(size_t reps, Fn &&fn, size_t warmups = 2)
{
    for (size_t w = 0; w < warmups; ++w)
        fn();
    double best = 0.0;
    Timer t;
    for (size_t rep = 0; rep < reps; ++rep) {
        t.reset();
        fn();
        const double s = t.seconds();
        if (rep == 0 || s < best)
            best = s;
    }
    return best;
}

/** Output of a shell command, trailing newline trimmed. */
inline std::string
shell(const char *cmd)
{
    std::string out;
    if (FILE *p = popen(cmd, "r")) {
        char buf[256];
        while (std::fgets(buf, sizeof buf, p))
            out += buf;
        pclose(p);
    }
    while (!out.empty() && out.back() == '\n')
        out.pop_back();
    return out;
}

/**
 * Provenance of a bench record: the checked-out commit, and a digest
 * of the sources the binary was built from — sha256 over the
 * working-tree contents of the tracked files under src/ and bench/,
 * first 16 hex digits — so a record taken before its change was
 * committed can still be matched to the commit that holds it:
 *
 *   git ls-files -z -- src bench | xargs -0 sha256sum | sha256sum
 *
 * from the repository root reproduces it. Both are empty outside a
 * git checkout.
 */
inline std::string
gitRevision()
{
    return shell("git rev-parse HEAD 2>/dev/null");
}

inline std::string
sourceDigest()
{
    return shell("cd \"$(git rev-parse --show-toplevel 2>/dev/null)\" "
                 "2>/dev/null && git ls-files -z -- src bench 2>/dev/null "
                 "| xargs -0 sha256sum | sha256sum | cut -c1-16");
}

/**
 * CPU steal: the share of CPU time the hypervisor gave other guests
 * while this VM wanted to run, from the aggregate "cpu" line of
 * /proc/stat (jiffies; the 8th field is steal, and the guest fields
 * after it are already inside user and nice). Take a StealClock at the
 * start of a run and read frac() at the end. Timings taken under heavy
 * steal measure co-tenants rather than code, so a record whose steal
 * exceeds kMaxStealFrac is flagged non-comparable. Both stay zero
 * where /proc/stat is unavailable.
 */
class StealClock
{
  public:
    StealClock() : start(now()) {}

    /** Steal share of all CPU time since construction, in [0, 1]. */
    double frac() const
    {
        const Times end = now();
        const unsigned long long total = end.total - start.total;
        return total > 0 ? double(end.steal - start.steal) / double(total)
                         : 0.0;
    }

  private:
    struct Times
    {
        unsigned long long steal = 0, total = 0;
    };

    static Times now()
    {
        Times t;
        FILE *f = std::fopen("/proc/stat", "r");
        if (!f)
            return t;
        unsigned long long v[8] = {};
        const int got = std::fscanf(
            f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
            &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
        std::fclose(f);
        if (got == 8) {
            for (unsigned long long x : v)
                t.total += x;
            t.steal = v[7];
        }
        return t;
    }

    Times start;
};

/**
 * Bytes of the host's last-level cache as sysfs reports it: the
 * highest-level data or unified cache of cpu0 (a VM reports what its
 * hypervisor exposes). 0 where sysfs has no cache entries.
 */
inline size_t
llcBytes()
{
    int best_level = 0;
    size_t bytes = 0;
    for (int i = 0;; ++i) {
        const std::string dir =
            "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
        int level = 0;
        char type[32] = {}, unit = 0;
        unsigned long size = 0;
        FILE *f = std::fopen((dir + "/level").c_str(), "r");
        if (!f)
            break;
        const bool ok = std::fscanf(f, "%d", &level) == 1;
        std::fclose(f);
        if (!ok)
            continue;
        if ((f = std::fopen((dir + "/type").c_str(), "r"))) {
            if (std::fscanf(f, "%31s", type) != 1)
                type[0] = '\0';
            std::fclose(f);
        }
        if ((f = std::fopen((dir + "/size").c_str(), "r"))) {
            if (std::fscanf(f, "%lu%c", &size, &unit) < 1)
                size = 0;
            std::fclose(f);
        }
        if (std::string(type) == "Instruction" || level < best_level)
            continue;
        best_level = level;
        const size_t scale = unit == 'K' ? 1024 : unit == 'M' ? 1 << 20 : 1;
        bytes = size_t(size) * scale;
    }
    return bytes;
}

/** Above this steal share a bench record is marked non-comparable. */
inline constexpr double kMaxStealFrac = 0.05;

/** The harness's JSON output path: MNNFAST_BENCH_JSON or `def`. */
inline const char *
benchJsonPath(const char *def)
{
    const char *env = std::getenv("MNNFAST_BENCH_JSON");
    return env ? env : def;
}

/**
 * Structured JSON emitter: nesting-aware comma/indent tracking so
 * harness code never hand-manages `first_point` booleans. Values are
 * written eagerly (no buffering); numbers use enough digits to
 * round-trip. The writer does not validate completeness — close what
 * you open — but unbalanced nesting trips an assert in endObject /
 * endArray.
 */
class JsonWriter
{
  public:
    /** Opens `path` for writing; failure is fatal (a bench with no
     *  output is a silently wasted run). */
    explicit JsonWriter(const std::string &path) : path_(path)
    {
        f = std::fopen(path.c_str(), "w");
        if (!f)
            fatal("cannot open %s for writing", path.c_str());
    }

    ~JsonWriter()
    {
        if (f)
            std::fclose(f);
    }

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    void beginObject() { open('{'); }
    void endObject() { close('}'); }
    void beginArray() { open('['); }
    void endArray() { close(']'); }

    /** Key introducing a nested object/array: key("x"); beginArray(). */
    void key(const char *k)
    {
        separate();
        std::fprintf(f, "\"%s\": ", k);
        pendingKey = true;
    }

    void field(const char *k, size_t v)
    {
        key(k);
        std::fprintf(f, "%zu", v);
        pendingKey = false;
    }

    void field(const char *k, double v)
    {
        key(k);
        std::fprintf(f, "%.9g", v);
        pendingKey = false;
    }

    void field(const char *k, const char *v)
    {
        key(k);
        std::fprintf(f, "\"%s\"", v);
        pendingKey = false;
    }

    void field(const char *k, bool v)
    {
        key(k);
        std::fprintf(f, v ? "true" : "false");
        pendingKey = false;
    }

    /** Already-serialized JSON value under key `k`. */
    void raw(const char *k, const std::string &json)
    {
        key(k);
        std::fprintf(f, "%s", json.c_str());
        pendingKey = false;
    }

    /** Bare array element. */
    void value(double v)
    {
        separate();
        std::fprintf(f, "%.9g", v);
    }

    const std::string &path() const { return path_; }

  private:
    void open(char c)
    {
        separate();
        pendingKey = false;
        std::fprintf(f, "%c", c);
        needComma.push_back(false);
    }

    void close(char c)
    {
        mnn_assert(!needComma.empty(), "JsonWriter close without open");
        needComma.pop_back();
        std::fprintf(f, "\n%*s%c", int(2 * needComma.size()), "", c);
        if (needComma.empty())
            std::fprintf(f, "\n");
    }

    /** Comma + newline + indent before a sibling; nothing after a
     *  key (the value belongs on the key's line). */
    void separate()
    {
        if (pendingKey) {
            pendingKey = false;
            return;
        }
        if (needComma.empty())
            return;
        if (needComma.back())
            std::fprintf(f, ",");
        needComma.back() = true;
        std::fprintf(f, "\n%*s", int(2 * needComma.size()), "");
    }

    FILE *f = nullptr;
    std::string path_;
    std::vector<bool> needComma;
    bool pendingKey = false;
};

} // namespace mnnfast::bench

#endif // MNNFAST_BENCH_BENCH_COMMON_HH
