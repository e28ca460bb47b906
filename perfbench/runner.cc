/**
 * @file
 * perfbench_runner: one repetition of a benchmark workload, in its own
 * process so peak RSS and every cache (simulated and host-side) start
 * empty.  run.py drives the repetitions, checks the results and
 * computes the metrics; this program only executes and measures.
 *
 *   perfbench_runner --plan P --seed S --jobs J --store DIR --out FILE
 *                    --mode setup|suite|traced [--spans FILE]
 *                    [--failpoints SPEC]
 *
 *   setup   construct the VulnerabilityStack and build every image / IR
 *           module the plan names (the toolchain work a user pays on
 *           each suite invocation), then stop;
 *   suite   set up, then run the plan through runSuite() and record
 *           wall, CPU, peak RSS and the progress-callback timeline;
 *   traced  set up, then replay the plan through the public per-layer
 *           calls (makeCampaignExec, golden/trace, prepareDriver,
 *           makeCtx, runDriverSample, foldCampaignSamples,
 *           ResultStore::put) over `jobs` threads with a span around
 *           each call, and write the spans to --spans when done.
 *
 * The plan file is a suite manifest ({"campaigns": [...]}, parsed by
 * planFromManifest) plus the per-layer sample counts.  The EnvConfig is
 * built field by field, so no VSTACK_* variable in the caller's
 * environment can change the program under test.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/suite.h"
#include "core/vstack.h"
#include "exec/driver.h"
#include "exec/error.h"
#include "support/failpoint.h"
#include "support/fastpath.h"
#include "support/json.h"
#include "support/logging.h"
#include "uarch/config.h"

using namespace vstack;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** User + system CPU of the whole process (all threads). */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &t) { return t.tv_sec + t.tv_usec / 1e6; };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // kB on Linux
}

struct Args
{
    std::string plan, store, out, mode, spans, failpoints;
    uint64_t seed = 42;
    unsigned jobs = 1;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            fatal("perfbench_runner: %s needs a value", k.c_str());
        const std::string v = argv[++i];
        if (k == "--plan") {
            a.plan = v;
        } else if (k == "--store") {
            a.store = v;
        } else if (k == "--out") {
            a.out = v;
        } else if (k == "--mode") {
            a.mode = v;
        } else if (k == "--spans") {
            a.spans = v;
        } else if (k == "--failpoints") {
            a.failpoints = v;
        } else if (k == "--seed") {
            a.seed = std::stoull(v);
        } else if (k == "--jobs") {
            a.jobs = static_cast<unsigned>(std::stoul(v));
        } else {
            fatal("perfbench_runner: unknown option %s", k.c_str());
        }
    }
    if (a.plan.empty() || a.store.empty() || a.out.empty() ||
        (a.mode != "setup" && a.mode != "suite" && a.mode != "traced") ||
        (a.mode == "traced" && a.spans.empty()) || a.jobs == 0)
        fatal("usage: perfbench_runner --plan P --seed S --jobs J "
              "--store DIR --out FILE --mode setup|suite|traced "
              "[--spans FILE] [--failpoints SPEC]");
    return a;
}

/** The measured configuration: the library defaults, spelled out. */
EnvConfig
benchConfig(const Json &plan, const Args &a)
{
    EnvConfig cfg;
    cfg.uarchFaults = static_cast<size_t>(plan.at("uarch_faults").asInt());
    cfg.archFaults = static_cast<size_t>(plan.at("arch_faults").asInt());
    cfg.swFaults = static_cast<size_t>(plan.at("sw_faults").asInt());
    cfg.seed = a.seed;
    cfg.resultsDir = a.store;
    cfg.jobs = a.jobs;
    cfg.resume = true;
    cfg.watchdogFactor = 4.0;
    cfg.isolate = false;
    cfg.journalFsync = false;
    cfg.verifyReplay = 0.0;
    cfg.checkpoint = true;
    cfg.fastpath = true;
    cfg.checkpoints = 16;
    cfg.verifyCheckpoint = 0.0;
    cfg.goldenBudget = 100'000'000;
    cfg.goldenCache = 2;
    cfg.faultModel.clear();
    return cfg;
}

/** One traced call; times are seconds since the trace epoch. */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = root
    int campaign = -1;   ///< plan index; -1 outside any campaign
    const char *name = "";
    double t0 = 0, t1 = 0;
    unsigned worker = 0;
    long index = -1;    ///< runDriverSample: sample index
    std::string tag;    ///< toolchain spans: what was built
    int built = -1;     ///< campaignFor: 1 when this call ran the golden
    uint64_t insts = 0; ///< campaignFor: golden simulated instructions
};

/** Spans kept in memory and written out once, when the run ends. */
class Tracer
{
  public:
    double now() const { return secondsSince(epoch); }
    uint64_t newId() { return next.fetch_add(1); }

    void record(Span s)
    {
        std::lock_guard<std::mutex> g(mu);
        spans.push_back(std::move(s));
    }

    bool write(const std::string &path)
    {
        std::lock_guard<std::mutex> g(mu);
        std::string out = "[\n";
        char buf[256];
        for (size_t k = 0; k < spans.size(); ++k) {
            const Span &s = spans[k];
            std::snprintf(buf, sizeof buf,
                          "%s{\"id\":%llu,\"parent\":%llu,\"campaign\":%d,"
                          "\"name\":\"%s\",\"t0\":%.9f,\"t1\":%.9f,"
                          "\"worker\":%u",
                          k ? ",\n" : "",
                          static_cast<unsigned long long>(s.id),
                          static_cast<unsigned long long>(s.parent),
                          s.campaign, s.name, s.t0, s.t1, s.worker);
            out += buf;
            if (s.index >= 0)
                out += ",\"index\":" + std::to_string(s.index);
            if (!s.tag.empty())
                out += ",\"tag\":" + Json(s.tag).dump();
            if (s.built >= 0) {
                out += ",\"built\":" + std::to_string(s.built) +
                       ",\"insts\":" + std::to_string(s.insts);
            }
            out += "}";
        }
        out += "\n]\n";
        return writeFile(path, out);
    }

  private:
    const Clock::time_point epoch = Clock::now();
    std::atomic<uint64_t> next{1};
    std::mutex mu;
    std::vector<Span> spans;
};

/** A span opened on construction and recorded on destruction, so a
 *  call that throws still leaves its span. */
class Scope
{
  public:
    Scope(Tracer &tr, const char *name, uint64_t parent, int campaign,
          unsigned worker)
        : tr(tr)
    {
        s.id = tr.newId();
        s.name = name;
        s.parent = parent;
        s.campaign = campaign;
        s.worker = worker;
        s.t0 = tr.now();
    }
    ~Scope()
    {
        s.t1 = tr.now();
        tr.record(std::move(s));
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    Span s;

  private:
    Tracer &tr;
};

/**
 * Construct the stack and build every image / IR module the plan names.
 * With a tracer, each build gets a span under `parent`.  `builds`
 * receives the number of distinct artifacts built.
 */
std::unique_ptr<VulnerabilityStack>
setUp(const EnvConfig &cfg, const CampaignPlan &plan, Tracer *tr,
      uint64_t parent, size_t &builds)
{
    auto stack = std::make_unique<VulnerabilityStack>(cfg);
    std::set<std::string> built;
    for (const CampaignSpec &spec : plan.specs()) {
        const bool ir = spec.layer == CampaignLayer::Svf;
        const IsaId isa = spec.layer == CampaignLayer::Uarch
                              ? coreByName(spec.core).isa
                              : spec.isa;
        const std::string what =
            spec.variant.tag() + "/" + (ir ? "ir64" : isaName(isa));
        if (!built.insert(what).second)
            continue;
        std::optional<Scope> sc;
        if (tr) {
            sc.emplace(*tr, ir ? "irFor" : "imageFor", parent, -1, 0);
            sc->s.tag = what;
        }
        if (ir)
            stack->irFor(spec.variant, 64);
        else
            stack->imageFor(spec.variant, isa);
    }
    builds = built.size();
    return stack;
}

/** Plan entries as run.py needs them to find and check results. */
Json
campaignList(VulnerabilityStack &stack, const CampaignPlan &plan)
{
    const EnvConfig &cfg = stack.config();
    Json list = Json::array();
    for (const CampaignSpec &spec : plan.specs()) {
        Json c = Json::object();
        c.set("label", spec.label());
        c.set("layer", campaignLayerName(spec.layer));
        switch (spec.layer) {
          case CampaignLayer::Uarch:
            c.set("detail", structureName(spec.structure));
            c.set("golden", spec.core + "/" + spec.variant.tag());
            break;
          case CampaignLayer::Pvf:
            c.set("detail", fpmName(spec.fpm));
            break;
          case CampaignLayer::Svf:
            c.set("detail", "");
            break;
        }
        c.set("n", static_cast<uint64_t>(campaignSamples(cfg, spec)));
        c.set("path", stack.resultStore().pathFor(campaignKey(cfg, spec)));
        list.push(std::move(c));
    }
    return list;
}

/** The measured run: the plan through runSuite(), timed from outside. */
Json
runUntraced(VulnerabilityStack &stack, const CampaignPlan &plan)
{
    std::vector<double> campaignDone;
    campaignDone.reserve(plan.size());
    double firstSample = -1, at95 = -1;
    Clock::time_point t0;
    SuiteOptions opts;
    // Called under the scheduler lock after every completion: only
    // record the moments the metrics need.
    opts.progress = [&](const SuiteProgress &p) {
        const double t = secondsSince(t0);
        if (firstSample < 0 && p.samplesDone > 0)
            firstSample = t;
        if (at95 < 0 && p.samplesTotal > 0 &&
            p.samplesDone * 20 >= p.samplesTotal * 19)
            at95 = t;
        while (campaignDone.size() < p.campaignsDone)
            campaignDone.push_back(t);
    };

    const double cpu0 = cpuSeconds();
    t0 = Clock::now();
    const SuiteReport report = runSuite(stack, plan, opts);
    const double wall = secondsSince(t0);
    const double cpu = cpuSeconds() - cpu0;

    Json out = Json::object();
    out.set("wall_s", wall);
    out.set("cpu_s", cpu);
    out.set("first_sample_s", firstSample);
    out.set("at95_s", at95);
    Json done = Json::array();
    for (double t : campaignDone)
        done.push(t);
    out.set("campaign_done_s", std::move(done));
    out.set("golden_evictions", report.goldenEvictions);
    out.set("cache_hits", static_cast<uint64_t>(report.cacheHits));
    out.set("storage_faults", report.storageFaults);
    out.set("failures", static_cast<uint64_t>(report.failures));
    out.set("interrupted", report.interrupted);
    Json errors = Json::array();
    for (const CampaignOutcome &o : report.outcomes)
        if (!o.complete)
            errors.push(o.spec.label() + ": " +
                        (o.error.empty() ? "incomplete" : o.error));
    out.set("errors", std::move(errors));
    out.set("campaigns", campaignList(stack, plan));
    return out;
}

/** One campaign of the traced replay. */
struct TCamp
{
    enum class St { Pending, Preparing, Running, Done };

    CampaignSpec spec;
    int id = 0;
    size_t n = 0;
    std::string key;
    St st = St::Pending;
    CampaignExec ce;
    std::vector<size_t> order; ///< dispatch order (scheduleKey)
    size_t cursor = 0;         ///< next order slot to claim
    size_t outstanding = 0;    ///< claimed, unfinished samples
    std::vector<std::optional<Json>> results; ///< index order
    Span root;                 ///< the campaign's own span
    double goldenS = 0;        ///< host time of its golden run (uarch)
};

struct Replay
{
    Replay(VulnerabilityStack &stack, Tracer &tr) : stack(stack), tr(tr) {}

    VulnerabilityStack &stack;
    Tracer &tr;

    std::mutex mu; ///< guards everything below and TCamp scheduling
    std::condition_variable cv;
    std::vector<std::unique_ptr<TCamp>> camps;
    std::exception_ptr error;
    /** (core, variant) -> the golden campaign last returned and the
     *  host time of the call that built it, to tell a golden run from
     *  an LRU hit. */
    std::map<std::string, std::pair<std::weak_ptr<UarchCampaign>, double>>
        goldens;
    size_t goldenRuns = 0;
};

/** SimError retry + quarantine, as the suite scheduler does it. */
std::optional<Json>
runSample(const exec::LayerDriver &d, exec::LayerDriver::Ctx &ctx, size_t i)
{
    const unsigned retries = exec::ExecConfig{}.retries;
    for (unsigned attempt = 0;; ++attempt) {
        try {
            return exec::runDriverSample(d, ctx, i);
        } catch (const SimError &) {
            if (attempt >= retries)
                return std::nullopt;
        }
    }
}

/** Golden run, trace and fault list of one campaign, then its
 *  dispatch order. */
void
prepareCamp(Replay &R, TCamp &c, unsigned worker)
{
    const CampaignSpec &spec = c.spec;
    c.root.id = R.tr.newId();
    c.root.name = "campaign";
    c.root.campaign = c.id;
    c.root.worker = worker;
    c.root.t0 = R.tr.now();

    std::shared_ptr<UarchCampaign> uc;
    if (spec.layer == CampaignLayer::Uarch) {
        Scope s(R.tr, "campaignFor", c.root.id, c.id, worker);
        uc = R.stack.campaignFor(spec.core, spec.variant);
        const double took = R.tr.now() - s.s.t0;
        std::lock_guard<std::mutex> g(R.mu);
        auto &[seen, buildS] =
            R.goldens[spec.core + "/" + spec.variant.tag()];
        s.s.built = seen.lock() != uc;
        if (s.s.built) {
            seen = uc;
            buildS = took;
            s.s.insts = uc->golden().insts;
            ++R.goldenRuns;
        }
        c.goldenS = buildS;
    }
    {
        Scope s(R.tr, "makeCampaignExec", c.root.id, c.id, worker);
        c.ce = makeCampaignExec(R.stack, spec, c.n);
    }
    if (uc) {
        if (c.ce.uarchCampaign != uc) {
            // Evicted from the golden LRU between the two calls, so
            // makeCampaignExec ran the golden again.
            std::lock_guard<std::mutex> g(R.mu);
            ++R.goldenRuns;
        }
        uc.reset();
        Scope s(R.tr, "ensureTrace", c.root.id, c.id, worker);
        c.ce.uarchCampaign->ensureTrace();
    }
    {
        Scope s(R.tr, "prepareDriver", c.root.id, c.id, worker);
        exec::prepareDriver(*c.ce.driver);
    }
    c.order.resize(c.n);
    std::iota(c.order.begin(), c.order.end(), size_t{0});
    const exec::LayerDriver &d = *c.ce.driver;
    if (d.scheduled()) {
        std::stable_sort(c.order.begin(), c.order.end(),
                         [&d](size_t a, size_t b) {
                             return d.scheduleKey(a) < d.scheduleKey(b);
                         });
    }
    c.results.assign(c.n, std::nullopt);
}

/** Fold and store a campaign whose samples are all done. */
void
finalizeCamp(Replay &R, TCamp &c, unsigned worker)
{
    Json out;
    {
        Scope s(R.tr, "foldCampaignSamples", c.root.id, c.id, worker);
        out = foldCampaignSamples(c.spec, c.results);
    }
    {
        Scope s(R.tr, "ResultStore::put", c.root.id, c.id, worker);
        R.stack.resultStore().put(c.key, out);
    }
    c.ce.reset();
    c.results = {};
    c.order = {};
    c.root.t1 = R.tr.now();
    R.tr.record(c.root);
}

/**
 * Replay worker.  Claim order follows runSuite's: a sample of the
 * earliest campaign with claimable samples, else prepare the earliest
 * pending campaign; the worker that finishes a campaign's last sample
 * folds and stores it.
 */
void
replayWorker(Replay &R, unsigned worker)
{
    std::map<TCamp *, std::unique_ptr<exec::LayerDriver::Ctx>> ctxs;
    std::unique_lock<std::mutex> lock(R.mu);
    try {
        for (;;) {
            if (R.error)
                return;
            TCamp *samp = nullptr, *prep = nullptr;
            bool allDone = true;
            for (auto &up : R.camps) {
                TCamp *c = up.get();
                allDone = allDone && c->st == TCamp::St::Done;
                if (!samp && c->st == TCamp::St::Running &&
                    c->cursor < c->order.size())
                    samp = c;
                if (!prep && c->st == TCamp::St::Pending)
                    prep = c;
            }
            if (allDone)
                return;

            if (samp) {
                const size_t i = samp->order[samp->cursor++];
                ++samp->outstanding;
                std::unique_ptr<exec::LayerDriver::Ctx> &ctx = ctxs[samp];
                lock.unlock();
                if (!ctx) {
                    Scope s(R.tr, "makeCtx", samp->root.id, samp->id,
                            worker);
                    ctx = samp->ce.driver->makeCtx();
                }
                std::optional<Json> payload;
                {
                    Scope s(R.tr, "runDriverSample", samp->root.id,
                            samp->id, worker);
                    s.s.index = static_cast<long>(i);
                    payload = runSample(*samp->ce.driver, *ctx, i);
                }
                lock.lock();
                samp->results[i] = std::move(payload);
                --samp->outstanding;
                if (samp->cursor < samp->order.size())
                    continue;
                ctxs.erase(samp);
                if (samp->outstanding > 0)
                    continue;
                lock.unlock();
                finalizeCamp(R, *samp, worker);
                lock.lock();
                samp->st = TCamp::St::Done;
                R.cv.notify_all();
            } else if (prep) {
                prep->st = TCamp::St::Preparing;
                lock.unlock();
                prepareCamp(R, *prep, worker);
                lock.lock();
                prep->st = TCamp::St::Running;
                R.cv.notify_all();
            } else {
                R.cv.wait(lock);
            }
        }
    } catch (...) {
        if (!lock.owns_lock())
            lock.lock();
        if (!R.error)
            R.error = std::current_exception();
        R.cv.notify_all();
    }
}

/** The traced run: the plan replayed call by call over `jobs` threads. */
Json
runTraced(VulnerabilityStack &stack, const CampaignPlan &plan, Tracer &tr,
          unsigned jobs)
{
    Replay R{stack, tr};
    const EnvConfig &cfg = stack.config();
    for (size_t i = 0; i < plan.size(); ++i) {
        auto c = std::make_unique<TCamp>();
        c->spec = plan.specs()[i];
        c->id = static_cast<int>(i);
        c->n = campaignSamples(cfg, c->spec);
        c->key = campaignKey(cfg, c->spec);
        if (c->n == 0)
            fatal("perfbench_runner: %s has no samples",
                  c->spec.label().c_str());
        R.camps.push_back(std::move(c));
    }

    const double t0 = tr.now();
    exec::runOnWorkers(jobs, [&R](unsigned w) { replayWorker(R, w); });
    const double wall = tr.now() - t0;
    if (R.error)
        std::rethrow_exception(R.error);

    Json out = Json::object();
    out.set("wall_s", wall);
    out.set("golden_runs", static_cast<uint64_t>(R.goldenRuns));
    Json list = campaignList(stack, plan);
    Json camps = Json::array();
    for (size_t i = 0; i < list.size(); ++i) {
        Json c = list.at(i);
        c.set("golden_s", R.camps[i]->goldenS);
        camps.push(std::move(c));
    }
    out.set("campaigns", std::move(camps));
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    std::string text, err;
    if (!readFile(a.plan, text))
        fatal("perfbench_runner: cannot read %s", a.plan.c_str());
    const Json planJson = Json::parse(text, &err);
    if (!err.empty())
        fatal("perfbench_runner: %s: %s", a.plan.c_str(), err.c_str());
    CampaignPlan plan;
    if (!planFromManifest(planJson, false, plan, err))
        fatal("perfbench_runner: %s", err.c_str());
    const EnvConfig cfg = benchConfig(planJson, a);
    setFastPathEnabled(cfg.fastpath);
    if (a.failpoints.empty())
        clearFailpoints();
    else
        armFailpoints(a.failpoints);

    std::unique_ptr<Tracer> tr;
    if (a.mode == "traced")
        tr = std::make_unique<Tracer>();

    Json out = Json::object();
    size_t builds = 0;
    std::unique_ptr<VulnerabilityStack> stack;
    const Clock::time_point s0 = Clock::now();
    if (tr) {
        Scope s(*tr, "setup", 0, -1, 0);
        stack = setUp(cfg, plan, tr.get(), s.s.id, builds);
    } else {
        stack = setUp(cfg, plan, nullptr, 0, builds);
    }
    out.set("setup_s", secondsSince(s0));
    out.set("toolchain_builds", static_cast<uint64_t>(builds));

    try {
        if (a.mode == "suite")
            out.set("suite", runUntraced(*stack, plan));
        else if (a.mode == "traced")
            out.set("traced", runTraced(*stack, plan, *tr, a.jobs));
    } catch (const std::exception &e) {
        // A divergence or a failed golden run: no result to report.
        fatal("perfbench_runner: %s: %s", a.mode.c_str(), e.what());
    }
    if (tr && !tr->write(a.spans))
        fatal("perfbench_runner: cannot write %s", a.spans.c_str());
    out.set("peak_rss_mb", peakRssMb());
    if (!writeFile(a.out, out.dump(1)))
        fatal("perfbench_runner: cannot write %s", a.out.c_str());
    return 0;
}
