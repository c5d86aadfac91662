#include "sched/trace.hpp"

namespace lac::sched {

std::vector<fabric::KernelKind> default_serving_mix() {
  return {fabric::KernelKind::Gemm, fabric::KernelKind::Syrk,
          fabric::KernelKind::Trsm, fabric::KernelKind::Cholesky,
          fabric::KernelKind::Lu,   fabric::KernelKind::Qr,
          fabric::KernelKind::Fft};
}

}  // namespace lac::sched
