// Named-plan shim over the one batched FFT executor, fft::BatchFft
// (fft/batch.hpp). Library code holds BatchFftT<Real> directly; this entry
// point remains for callers that build a plan by name.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "fft/batch.hpp"

namespace soi::fft {

/// A BatchFft of size n. `engine` must be "" or "batch"; any other name
/// throws soi::InvalidArgumentError.
std::unique_ptr<const BatchFft> make_batch_plan(const std::string& engine,
                                                std::int64_t n,
                                                std::int64_t batch_width = 0);

}  // namespace soi::fft
