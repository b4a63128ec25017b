#include "fft/engine.hpp"

#include "common/error.hpp"

namespace soi::fft {

std::unique_ptr<const BatchFft> make_batch_plan(const std::string& engine,
                                                std::int64_t n,
                                                std::int64_t batch_width) {
  if (!engine.empty() && engine != "batch") {
    throw InvalidArgumentError("unknown FFT engine '" + engine +
                               "' (the only engine is 'batch')");
  }
  return std::make_unique<const BatchFft>(n, batch_width);
}

}  // namespace soi::fft
