/**
 * @file
 * Ablation **A4**: the frame-hash verification strategy.
 *
 * The paper argues that because a displayed view "can only belong to
 * a finite set of all the possible views", a server can either match
 * frame hashes online against that set or, "to avoid expensive
 * computation", log them and audit offline. This bench quantifies
 * the trade-off: per-request server cost of online verification as
 * the view set grows, vs the measured cost of a logged (offline)
 * page request; plus the MD5 vs SHA-256 hardware choice for the
 * frame hash engine.
 */

#include <benchmark/benchmark.h>

#include "bench_obs_util.hh"

#include <cstdio>

#include "core/csv.hh"
#include "core/logging.hh"
#include "core/rng.hh"
#include "fingerprint/capture.hh"
#include "fingerprint/synthesis.hh"
#include "touch/behavior.hh"
#include "trust/flock.hh"
#include "trust/frames.hh"
#include "trust/scenario.hh"
#include "trust/server.hh"

namespace core = trust::core;
namespace crypto = trust::crypto;
namespace fp = trust::fingerprint;
namespace hw = trust::hw;
namespace proto = trust::trust;

namespace {

/** A good covered capture of @p finger. */
proto::CaptureSample
goodCapture(const fp::MasterFinger &finger, core::Rng &rng)
{
    fp::CaptureConditions cc;
    cc.windowRows = 90;
    cc.windowCols = 90;
    cc.pressure = 0.95;
    proto::CaptureSample sample;
    do {
        const auto cap = fp::captureTemplateFast(finger, cc, rng);
        sample.minutiae = cap.minutiae;
        sample.quality = cap.quality;
    } while (sample.minutiae.size() < 8);
    sample.covered = true;
    return sample;
}

/**
 * Mean wall time of WebServer::handlePageRequest alone, over
 * @p requests honest requests that each open a page the server has
 * not served before. The device side (render, hash, MAC) runs
 * outside the timed region.
 */
double
pageRequestMs(bool online, int requests)
{
    const std::string domain = "www.bank.com";
    crypto::Csprng ca_rng(std::uint64_t{41});
    crypto::CertificateAuthority ca("CA", 512, ca_rng);
    proto::ServerPolicy policy;
    policy.onlineFrameVerification = online;
    proto::WebServer server(domain, ca, 42, 512, policy);
    proto::FlockModule flock("phone", ca.rootKey(), 43);
    flock.installDeviceCertificate(ca.issue(
        "phone", crypto::CertRole::FlockDevice, flock.devicePublicKey()));
    core::Rng rng(44);
    const auto finger = fp::synthesizeFinger(1, rng);
    std::vector<std::vector<fp::Minutia>> views;
    for (int i = 0; i < 3; ++i)
        views.push_back(goodCapture(finger, rng).minutiae);
    flock.enrollFinger(views);

    const core::Bytes placeholder(64, 0);
    const auto submit = flock.handleRegistrationPage(
        server.handleRegistrationRequest({0, domain, "alice"}), "alice",
        placeholder, goodCapture(finger, rng));
    TRUST_ASSERT(submit && server.handleRegistrationSubmit(*submit).ok,
                 "bench_a4: registration failed");
    const auto login = flock.handleLoginPage(
        *server.handleLoginRequest({0, domain, "alice"}), placeholder,
        goodCapture(finger, rng));
    TRUST_ASSERT(login.has_value(), "bench_a4: login failed");
    auto page = server.handleLoginSubmit(*login);

    const hw::DisplaySpec display;
    double total_ms = 0.0;
    for (int i = 0; i < requests; ++i) {
        TRUST_ASSERT(page && flock.acceptContentPage(*page),
                     "bench_a4: page request rejected");
        const auto content =
            flock.decryptPageContent(domain, page->pageContent);
        const auto request = flock.makePageRequest(
            domain, "page-" + std::to_string(i),
            proto::renderFrame(*content, {100, 0}, display),
            goodCapture(finger, rng));
        TRUST_ASSERT(request.has_value(), "bench_a4: no request");
        const trust::benchutil::Stopwatch sw;
        page = server.handlePageRequest(*request);
        total_ms += sw.ms();
    }
    return total_ms / requests;
}

void
printFrameHashStudy()
{
    std::printf("=== A4: online verification vs offline audit ===\n");

    // Cost of computing the expected-hash set for one page, as the
    // finite view set grows (zoom levels x scroll steps).
    hw::DisplaySpec display;
    hw::FrameHashEngine engine;
    const core::Bytes page(1024, 0x5c);

    core::Table table({"views in set", "server cost per page",
                       "strategy"});
    // One untimed render+hash first, so the smallest set is not
    // charged the cold-start cost (page faults, caches, SHA latch).
    benchmark::DoNotOptimize(
        engine.hashFrame(proto::renderFrame(page, {100, 0}, display)));
    for (int zooms : {1, 3, 6}) {
        // Mirror standardViews() structure: zooms x 4 scrolls.
        const int views = zooms * 4;
        const trust::benchutil::Stopwatch sw;
        for (int z = 0; z < zooms; ++z)
            for (int s = 0; s < 4; ++s)
                benchmark::DoNotOptimize(engine.hashFrame(
                    proto::renderFrame(page, {100 + 50 * z, s},
                                       display)));
        const double ms = sw.ms();
        table.addRow({std::to_string(views),
                      core::Table::num(ms, 1) + " ms",
                      "online (render+hash all views per request)"});
    }
    // The same choice measured end to end through the server's page
    // handler (MAC check, page build, session cipher included).
    constexpr int kRequests = 24;
    table.addRow({"12",
                  core::Table::num(pageRequestMs(true, kRequests), 3) +
                      " ms",
                  "online, measured handlePageRequest (fresh pages)"});
    table.addRow({"12",
                  core::Table::num(pageRequestMs(false, kRequests), 3) +
                      " ms",
                  "offline, measured handlePageRequest (log hash)"});
    table.print();
    std::printf("\nOnline verification renders and hashes every view "
                "of each page it has not seen; offline serving only "
                "logs (tag, hash) and the audit builds each page's "
                "view set once, off the critical path -- the paper's "
                "recommendation.\n");

    // End-to-end: run identical tampered sessions under both server
    // policies and show both catch the malware.
    std::printf("\n=== A4: both strategies catch frame tampering "
                "===\n");
    core::Rng finger_rng(1);
    const auto finger = trust::fingerprint::synthesizeFinger(
        1, finger_rng);
    const auto behavior = trust::touch::UserBehavior::forUser(
        4, {trust::touch::homeScreenLayout(),
            trust::touch::browserLayout()});

    core::Table modes({"server policy", "pages served to malware",
                       "tampering detected"});
    for (bool online : {false, true}) {
        proto::EcosystemConfig config;
        config.seed = 44;
        config.serverPolicy.onlineFrameVerification = online;
        proto::Ecosystem eco(config);
        auto &server = eco.addServer("www.bank.com");
        auto &device = eco.addDevice("phone", behavior, finger);
        proto::MalwareProfile malware;
        malware.tamperFrames = true;
        device.setMalware(malware);
        core::Rng rng(45);
        const auto outcome = proto::runBrowsingSession(
            eco, device, server, behavior, finger, rng, 10, "alice");
        const std::string detected =
            online ? std::to_string(server.counters().get(
                         "request-rejected:frame-hash")) +
                         " rejected online"
                   : std::to_string(server.auditFrameHashes()) + "/" +
                         std::to_string(server.auditLogSize()) +
                         " flagged in audit";
        modes.addRow({online ? "online verification" : "offline audit",
                      std::to_string(outcome.pagesReceived),
                      detected});
    }
    modes.print();
}

void
BM_RenderFrame(benchmark::State &state)
{
    hw::DisplaySpec display;
    const core::Bytes page(1024, 0x11);
    for (auto _ : state) {
        auto frame = proto::renderFrame(page, {150, 1}, display);
        benchmark::DoNotOptimize(frame);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        display.frameBytes());
}
BENCHMARK(BM_RenderFrame);

void
BM_FrameHashAlgorithms(benchmark::State &state)
{
    const auto algo = state.range(0) == 0
                          ? hw::FrameHashEngine::Algorithm::Sha256
                          : hw::FrameHashEngine::Algorithm::Md5;
    hw::FrameHashEngine engine(algo);
    hw::DisplaySpec display;
    const core::Bytes frame(
        static_cast<std::size_t>(display.frameBytes()), 0x22);
    for (auto _ : state) {
        auto digest = engine.hashFrame(frame);
        benchmark::DoNotOptimize(digest);
    }
    state.SetLabel(state.range(0) == 0 ? "SHA-256" : "MD5");
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        display.frameBytes());
}
BENCHMARK(BM_FrameHashAlgorithms)->Arg(0)->Arg(1);

} // namespace

int
main(int argc, char **argv)
{
    return trust::benchutil::run(argc, argv, printFrameHashStudy);
}
