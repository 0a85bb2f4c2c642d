// Layer spans taken from outside the library, by symbol wrapping.
//
// The traced binary is linked with `-Wl,--wrap=SYM` for every mangled
// name quoted in this file (CMakeLists.txt collects them from here).
// The linker then sends each call to SYM that crosses object files,
// including the calls the library makes internally, to __wrap_SYM
// below, which opens a span and forwards to the real function as
// __real_SYM.  Calls that stay inside one translation unit are not
// redirected: BatchEvaluator::evaluate's own fingerprint() call, for
// example, is part of legal.batch.evaluate's self time.
//
// A member function is wrapped as a free function whose first argument
// is `this`; the Itanium C++ ABI passes both identically.  A changed
// signature has a new mangled name and the traced binary no longer
// links until the name here is updated.

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "capture/capture.h"
#include "diskimage/hash_search.h"
#include "diskimage/keyword_search.h"
#include "evidence/locker.h"
#include "investigation/investigation.h"
#include "legal/batch.h"
#include "legal/engine.h"
#include "legal/suppression.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "storedcomm/provider.h"
#include "stream/tap_registry.h"
#include "stream/tap_session.h"
#include "tornet/anonymity_network.h"
#include "trace.h"
#include "watermark/correlate.h"

#define PERFBENCH_REAL(sym) __asm__("__real_" sym)
#define PERFBENCH_WRAP(sym) __asm__("__wrap_" sym)

// Declares the real function and defines its wrapper: `ret` and
// `params` give the signature, `args` forwards the parameters.
#define PERFBENCH_SPAN(layer, sym, ret, fn, params, args)  \
  ret real_##fn params PERFBENCH_REAL(sym);                \
  ret wrap_##fn params PERFBENCH_WRAP(sym);                \
  ret wrap_##fn params {                                   \
    const perfbench::trace::Scope layer_span(perfbench::trace::Layer::layer); \
    return real_##fn args;                                 \
  }

namespace perfbench::wrapped {

using namespace lexfor;
using Frames = std::span<const std::uint8_t>;
using String = std::string;

// --- serving path ----------------------------------------------------

#define SYM_SERVE \
  "_ZN6lexfor5serve13VerdictServer5serveERNS0_10ConnectionESt4spanIKhLm18446744073709551615EE"
PERFBENCH_SPAN(kServe, SYM_SERVE, serve::ServeStats, serve,
               (serve::VerdictServer * self, serve::Connection& conn,
                Frames frames),
               (self, conn, frames))

#define SYM_PEEK \
  "_ZN6lexfor5serve4wire10peek_frameESt4spanIKhLm18446744073709551615EE"
PERFBENCH_SPAN(kWirePeek, SYM_PEEK, Result<serve::wire::FrameInfo>, peek,
               (Frames buf), (buf))

#define SYM_DECODE \
  "_ZN6lexfor5serve4wire14decode_requestESt4spanIKhLm18446744073709551615EERNS1_7RequestE"
PERFBENCH_SPAN(kWireDecode, SYM_DECODE, Status, decode,
               (Frames frame, serve::wire::Request& out), (frame, out))

#define SYM_ENCODE \
  "_ZN6lexfor5serve4wire15encode_responseERKNS1_8ResponseERSt6vectorIhSaIhEE"
PERFBENCH_SPAN(kWireEncode, SYM_ENCODE, void, encode,
               (const serve::wire::Response& r, std::vector<std::uint8_t>& out),
               (r, out))

#define SYM_FINGERPRINT "_ZN6lexfor5legal11fingerprintERKNS0_8ScenarioE"
PERFBENCH_SPAN(kFingerprint, SYM_FINGERPRINT, legal::ScenarioFingerprint,
               fingerprint, (const legal::Scenario& s), (s))

#define SYM_BATCH_EVALUATE \
  "_ZNK6lexfor5legal14BatchEvaluator8evaluateERKNS0_8ScenarioE"
PERFBENCH_SPAN(kBatchEvaluate, SYM_BATCH_EVALUATE, legal::Determination,
               batch_evaluate,
               (const legal::BatchEvaluator* self, const legal::Scenario& s),
               (self, s))

#define SYM_ENGINE_EVALUATE \
  "_ZNK6lexfor5legal16ComplianceEngine8evaluateERKNS0_8ScenarioE"
PERFBENCH_SPAN(kEngineEvaluate, SYM_ENGINE_EVALUATE, legal::Determination,
               engine_evaluate,
               (const legal::ComplianceEngine* self, const legal::Scenario& s),
               (self, s))

// --- traceback -------------------------------------------------------

#define SYM_CIRCUIT \
  "_ZNK6lexfor6tornet16AnonymityNetwork13build_circuitERNS_3RngE"
PERFBENCH_SPAN(kCircuit, SYM_CIRCUIT, Result<tornet::Circuit>, circuit,
               (const tornet::AnonymityNetwork* self, Rng& rng), (self, rng))

#define SYM_TRANSIT \
  "_ZNK6lexfor6tornet16AnonymityNetwork7transitERKNS0_7CircuitERKSt6vectorIdSaIdEERNS_3RngE"
PERFBENCH_SPAN(kTransit, SYM_TRANSIT, std::vector<double>, transit,
               (const tornet::AnonymityNetwork* self,
                const tornet::Circuit& circuit,
                const std::vector<double>& send_sec, Rng& rng),
               (self, circuit, send_sec, rng))

#define SYM_BIN "_ZN6lexfor6tornet12bin_arrivalsERKSt6vectorIdSaIdEEddm"
PERFBENCH_SPAN(kBin, SYM_BIN, std::vector<std::uint32_t>, bin,
               (const std::vector<double>& arrivals, double start,
                double window, std::size_t windows),
               (arrivals, start, window, windows))

#define SYM_SENDS \
  "_ZN6lexfor6tornet26generate_modulated_poissonEdddRKSt8functionIFddEERNS_3RngE"
std::vector<double> real_sends(double, double, double,
                               const std::function<double(double)>&, Rng&)
    PERFBENCH_REAL(SYM_SENDS);
std::vector<double> wrap_sends(double, double, double,
                               const std::function<double(double)>&, Rng&)
    PERFBENCH_WRAP(SYM_SENDS);
std::vector<double> wrap_sends(double base_rate, double t_end,
                               double max_multiplier,
                               const std::function<double(double)>& multiplier,
                               Rng& rng) {
  std::vector<double> sends;
  {
    const trace::Scope layer_span(trace::Layer::kSends);
    sends = real_sends(base_rate, t_end, max_multiplier, multiplier, rng);
  }
  trace::add_packets(sends.size());
  return sends;
}

#define SYM_ADD_TAP \
  "_ZN6lexfor6stream11TapRegistry7add_tapERKNS_9watermark17CorrelationKernelENS0_16TapSessionConfigE"
PERFBENCH_SPAN(kTapAdmit, SYM_ADD_TAP, Result<stream::TapSession*>, add_tap,
               (stream::TapRegistry * self,
                const watermark::CorrelationKernel& kernel,
                stream::TapSessionConfig config),
               (self, kernel, std::move(config)))

#define SYM_INGEST "_ZN6lexfor6stream10TapSession10ingest_binEd"
PERFBENCH_SPAN(kFeed, SYM_INGEST, void, ingest,
               (stream::TapSession * self, double rate), (self, rate))

#define SYM_SCAN \
  "_ZNK6lexfor9watermark17CorrelationKernel4scanESt4spanIKdLm18446744073709551615EEmmm"
PERFBENCH_SPAN(kScan, SYM_SCAN, Result<watermark::ScanResult>, scan,
               (const watermark::CorrelationKernel* self,
                std::span<const double> rates, std::size_t max_offset,
                std::size_t code_begin, std::size_t code_length),
               (self, rates, max_offset, code_begin, code_length))

#define SYM_DESPREAD \
  "_ZNK6lexfor9watermark17CorrelationKernel8despreadEPKdmm"
PERFBENCH_SPAN(kScan, SYM_DESPREAD, double, despread,
               (const watermark::CorrelationKernel* self, const double* x,
                std::size_t code_begin, std::size_t len),
               (self, x, code_begin, len))

// --- live case -------------------------------------------------------

#define SYM_LINT \
  "_ZNK6lexfor13investigation13Investigation9lint_planENS_4lint17InvestigationPlanE"
PERFBENCH_SPAN(kLintPlan, SYM_LINT, lint::LintReport, lint_plan,
               (const investigation::Investigation* self,
                lint::InvestigationPlan plan),
               (self, std::move(plan)))

#define SYM_APPLY_FOR \
  "_ZN6lexfor13investigation13Investigation9apply_forENS_5legal11ProcessKindENS2_12ProcessScopeENS_7SimTimeE"
PERFBENCH_SPAN(kApplyFor, SYM_APPLY_FOR, Result<ProcessId>, apply_for,
               (investigation::Investigation * self, legal::ProcessKind kind,
                legal::ProcessScope scope, SimTime now),
               (self, kind, std::move(scope), now))

#define SYM_CAPTURE \
  "_ZN6lexfor7capture13CaptureDevice6createENS0_11CaptureModeERKNS_5legal16GrantedAuthorityENS3_11ProcessKindENS_2IdINS_9NodeIdTagEEENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS_7SimTimeE"
PERFBENCH_SPAN(kCaptureCreate, SYM_CAPTURE, Result<capture::CaptureDevice>,
               capture_create,
               (capture::CaptureMode mode,
                const legal::GrantedAuthority& authority,
                legal::ProcessKind required, NodeId target, String location,
                SimTime now),
               (mode, authority, required, target, std::move(location), now))

#define SYM_TAP_CREATE \
  "_ZN6lexfor6stream10TapSession6createERKNS_9watermark17CorrelationKernelENS0_16TapSessionConfigE"
PERFBENCH_SPAN(kTapCreate, SYM_TAP_CREATE, Result<stream::TapSession>,
               tap_create,
               (const watermark::CorrelationKernel& kernel,
                stream::TapSessionConfig config),
               (kernel, std::move(config)))

#define SYM_TAP_CREATE_ARENA \
  "_ZN6lexfor6stream10TapSession6createERKNS_9watermark17CorrelationKernelENS0_16TapSessionConfigERNS_4util5ArenaE"
PERFBENCH_SPAN(kTapCreate, SYM_TAP_CREATE_ARENA, Result<stream::TapSession>,
               tap_create_arena,
               (const watermark::CorrelationKernel& kernel,
                stream::TapSessionConfig config, util::Arena& arena),
               (kernel, std::move(config), arena))

#define SYM_HASH_SEARCH \
  "_ZNK6lexfor9diskimage12HashSearcher6searchERKNS0_9DiskImageERKNS_5legal16GrantedAuthorityENS5_11ProcessKindERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS_7SimTimeE"
PERFBENCH_SPAN(kHashSearch, SYM_HASH_SEARCH,
               Result<std::vector<diskimage::HashHit>>, hash_search,
               (const diskimage::HashSearcher* self,
                const diskimage::DiskImage& image,
                const legal::GrantedAuthority& authority,
                legal::ProcessKind required, const String& location,
                SimTime now),
               (self, image, authority, required, location, now))

#define SYM_KEYWORD_SEARCH \
  "_ZNK6lexfor9diskimage15KeywordSearcher6searchERKNS0_9DiskImageERKNS_5legal16GrantedAuthorityENS5_11ProcessKindERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS_7SimTimeERKSt8functionIFbSH_EE"
PERFBENCH_SPAN(kKeywordSearch, SYM_KEYWORD_SEARCH,
               Result<std::vector<diskimage::KeywordHit>>, keyword_search,
               (const diskimage::KeywordSearcher* self,
                const diskimage::DiskImage& image,
                const legal::GrantedAuthority& authority,
                legal::ProcessKind required, const String& location,
                SimTime now,
                const std::function<bool(const String&)>& path_in_scope),
               (self, image, authority, required, location, now,
                path_in_scope))

#define SYM_DISCLOSURE \
  "_ZNK6lexfor10storedcomm8Provider20compelled_disclosureENS0_14DisclosureKindENS_2IdINS_12AccountIdTagEEERKNS_5legal16GrantedAuthorityENS_7SimTimeE"
PERFBENCH_SPAN(kDisclosure, SYM_DISCLOSURE,
               Result<storedcomm::DisclosureResult>, disclosure,
               (const storedcomm::Provider* self,
                storedcomm::DisclosureKind kind, AccountId account,
                const legal::GrantedAuthority& authority, SimTime now),
               (self, kind, account, authority, now))

#define SYM_DEPOSIT \
  "_ZN6lexfor8evidence14EvidenceLocker7depositENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt6vectorIhSaIhEES7_NS_7SimTimeE"
PERFBENCH_SPAN(kDeposit, SYM_DEPOSIT, EvidenceId, deposit,
               (evidence::EvidenceLocker * self, String description,
                Bytes content, String custodian, SimTime at),
               (self, std::move(description), std::move(content),
                std::move(custodian), at))

#define SYM_ACQUIRE \
  "_ZN6lexfor13investigation13Investigation7acquireERKNS_5legal8ScenarioENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS2_16GrantedAuthorityESt6vectorINS_2IdINS_13EvidenceIdTagEEESaISI_EESB_"
PERFBENCH_SPAN(kAcquire, SYM_ACQUIRE, investigation::AcquisitionOutcome,
               acquire,
               (investigation::Investigation * self,
                const legal::Scenario& scenario, String description,
                const legal::GrantedAuthority& held,
                std::vector<EvidenceId> derived_from, String aggrieved_party),
               (self, scenario, std::move(description), held,
                std::move(derived_from), std::move(aggrieved_party)))

#define SYM_AUDIT "_ZN6lexfor5legal19analyze_suppressionERKNS0_15ProvenanceGraphE"
PERFBENCH_SPAN(kAudit, SYM_AUDIT, legal::SuppressionReport, audit,
               (const legal::ProvenanceGraph& graph), (graph))

}  // namespace perfbench::wrapped
