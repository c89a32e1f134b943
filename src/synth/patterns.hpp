// Memory access pattern generators.
//
// These play the role of the instrumented binary's address stream: each
// kernel (basic block) of a synthetic application owns a data region and a
// pattern, and the tracer pulls a stream of MemRefs from the pattern into
// the cache simulator exactly the way PEBIL's instrumentation feeds the
// PMaC tracer on the fly (Fig. 2 of the paper).
//
// Patterns cover the locality classes the MultiMAPS machine profile probes:
// stride-1 streams, fixed larger strides, uniform random accesses within a
// footprint, index-driven gathers, and 3-D stencil neighbourhoods.
#pragma once

#include <cstdint>
#include <string>

#include "memsim/hierarchy.hpp"
#include "util/rng.hpp"

namespace pmacx::synth {

/// Locality classes for generated reference streams.
enum class Pattern {
  Sequential,  ///< stride-1 walk, wrapping over the footprint
  Strided,     ///< fixed-stride walk (stride in elements)
  Random,      ///< uniform random element within the footprint
  Gather,      ///< sequential index read + random data read (indirect access)
  Stencil3d,   ///< 7-point stencil sweep over a cubic grid
};

/// Stable pattern names for reports.
std::string pattern_name(Pattern pattern);

/// Parameters of one stream.
struct StreamSpec {
  Pattern pattern = Pattern::Sequential;
  std::uint64_t base_addr = 0;        ///< start of the kernel's data region
  std::uint64_t footprint_bytes = 0;  ///< region size (must be ≥ elem_bytes)
  std::uint32_t elem_bytes = 8;       ///< size of one reference
  std::uint32_t stride_elems = 1;     ///< Strided: distance between accesses
  double store_fraction = 0.25;       ///< fraction of refs that are stores
};

/// An endless reference stream over one region: each next() yields the
/// pattern's next reference.  Deterministic for a fixed (spec, seed), and
/// independent of every other stream, so callers can interleave streams.
class RefStream {
 public:
  /// Validates the spec (footprint ≥ one element, non-zero element size).
  RefStream(const StreamSpec& spec, std::uint64_t seed);

  /// Generates the next reference.
  memsim::MemRef next();

  const StreamSpec& spec() const { return spec_; }

 private:
  StreamSpec spec_;
  util::Rng rng_;
  std::uint64_t elems_;     ///< footprint in elements
  std::uint64_t cursor_ = 0;
  // Stencil3d geometry: cubic grid with side_ elements per dimension.
  std::uint64_t side_ = 0;
  std::uint64_t plane_ = 0;
  std::uint32_t stencil_point_ = 0;
};

}  // namespace pmacx::synth
