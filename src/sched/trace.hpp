#pragma once
// The scheduler layer's default serving traffic profile.
#include <vector>

#include "fabric/kernel_request.hpp"

namespace lac::sched {

/// Default single-kernel serving mix: GEMM, SYRK, TRSM, CHOL, LU, QR and
/// the hybrid-core FFT (every kind the registry serves on the baseline
/// 4x4 core; ChipGemm and Syr2k stay out of the default traffic profile,
/// as in the serving bench).
std::vector<fabric::KernelKind> default_serving_mix();

}  // namespace lac::sched
