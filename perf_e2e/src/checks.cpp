#include "checks.hpp"

#include <cmath>

#include "core/extrapolator.hpp"
#include "psins/predictor.hpp"
#include "synth/registry.hpp"
#include "trace/binary_io.hpp"
#include "trace/signature.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace pmacx::e2e {
namespace {

template <typename Features>
std::string rates_ok(const Features& f, std::size_t l1, const std::string& where) {
  double previous = 0.0;
  for (std::size_t lvl = 0; lvl < 3; ++lvl) {
    const double rate = f[l1 + lvl];
    if (!(rate >= 0.0 && rate <= 1.0))
      return where + ": hit rate L" + std::to_string(lvl + 1) + " = " +
             util::format("%.17g", rate) + " outside [0, 1]";
    if (rate < previous)
      return where + ": hit rate L" + std::to_string(lvl + 1) + " below L" +
             std::to_string(lvl);
    previous = rate;
  }
  return "";
}

template <typename Features>
std::string ordered(const Features& lo, const Features& mid, const Features& hi,
                    const std::string& where) {
  for (std::size_t i = 0; i < lo.size(); ++i)
    if (!(lo[i] <= mid[i] && mid[i] <= hi[i]))
      return where + " element " + std::to_string(i) + ": " +
             util::format("lo %.17g, median %.17g, hi %.17g", lo[i], mid[i], hi[i]);
  return "";
}

}  // namespace

std::string check_within(double predicted, double reference, double tolerance) {
  if (!(reference > 0.0)) return "reference runtime is not positive";
  const double error = std::abs(predicted - reference) / reference;
  if (error <= tolerance) return "";
  return util::format("predicted %.6g s vs reference %.6g s: error %.2f%% above %.2f%%",
                      predicted, reference, 100.0 * error, 100.0 * tolerance);
}

std::string check_hit_rates(const trace::TaskTrace& task) {
  const auto block_l1 = static_cast<std::size_t>(trace::BlockElement::HitRateL1);
  const auto instr_l1 = static_cast<std::size_t>(trace::InstrElement::HitRateL1);
  for (const trace::BasicBlockRecord& block : task.blocks) {
    const std::string where = task.app + "@" + std::to_string(task.core_count) + " block " +
                              std::to_string(block.id);
    if (std::string bad = rates_ok(block.features, block_l1, where); !bad.empty()) return bad;
    for (const trace::InstructionRecord& instr : block.instructions)
      if (std::string bad = rates_ok(instr.features, instr_l1,
                                     where + " instr " + std::to_string(instr.index));
          !bad.empty())
        return bad;
  }
  return "";
}

std::string check_identical(const std::string& got, const std::string& want) {
  if (got == want) return "";
  std::size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  return "bodies differ at byte " + std::to_string(at) + " (sizes " +
         std::to_string(got.size()) + " vs " + std::to_string(want.size()) + ")";
}

std::string check_interval(const std::string& body) {
  trace::TaskTrace lo, mid, hi;
  try {
    const service::IntervalResult result = service::decode_interval_result(body);
    lo = trace::from_binary(result.lo);
    mid = trace::from_binary(result.median);
    hi = trace::from_binary(result.hi);
  } catch (const util::Error& e) {
    return std::string("interval body does not decode: ") + e.what();
  }
  if (lo.blocks.size() != mid.blocks.size() || mid.blocks.size() != hi.blocks.size())
    return "interval traces have different block counts";
  for (std::size_t b = 0; b < mid.blocks.size(); ++b) {
    const auto& l = lo.blocks[b];
    const auto& m = mid.blocks[b];
    const auto& h = hi.blocks[b];
    const std::string where = "block " + std::to_string(m.id);
    if (l.id != m.id || m.id != h.id) return where + ": block ids differ across the interval";
    if (std::string bad = ordered(l.features, m.features, h.features, where); !bad.empty())
      return bad;
    if (l.instructions.size() != m.instructions.size() ||
        m.instructions.size() != h.instructions.size())
      return where + ": instruction counts differ across the interval";
    for (std::size_t i = 0; i < m.instructions.size(); ++i)
      if (std::string bad = ordered(l.instructions[i].features, m.instructions[i].features,
                                    h.instructions[i].features,
                                    where + " instr " + std::to_string(i));
          !bad.empty())
        return bad;
  }
  return "";
}

std::string expected_prediction(const std::vector<trace::TaskTrace>& inputs,
                                const service::FitSpec& spec, std::uint32_t target,
                                const std::string& app,
                                const machine::MachineProfile& profile) {
  const core::TaskModelSet models = core::fit_task_models(inputs, spec.to_options());
  core::ExtrapolationResult extrapolated = core::extrapolate_from_models(models, target);
  const auto model = synth::make_app(app, 1.0);
  trace::AppSignature signature;
  signature.app = extrapolated.trace.app;
  signature.core_count = target;
  signature.target_system = extrapolated.trace.target_system;
  signature.demanding_rank = extrapolated.trace.rank;
  signature.tasks.push_back(std::move(extrapolated.trace));
  for (std::uint32_t rank = 0; rank < target; ++rank)
    signature.comm.push_back(model->comm_trace(target, rank));
  signature.validate();
  const psins::PredictionResult prediction = psins::predict(signature, profile);
  return psins::render_prediction(signature.demanding_task(), profile.system.name, prediction);
}

}  // namespace pmacx::e2e
