// SPDX-License-Identifier: MIT
//
// Shared test helpers:
//  * test_temp_dir() — a per-process directory for files a test writes,
//  * Fnv1a — the golden-digest hash (FNV-1a over little-endian bytes).
#pragma once

#include <stdlib.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "core/process_common.hpp"

namespace cobra {

/// A fresh directory under ::testing::TempDir(), made by mkdtemp on first
/// use and removed at exit, ending in '/'. Tests that write fixed file
/// names put them here, so two test processes (a second build tree running
/// the same test, say) never share a file.
inline const std::string& test_temp_dir() {
  struct Dir {
    std::string path;
    Dir() {
      std::string pattern =
          (std::filesystem::path(::testing::TempDir()) / "cobra_test_XXXXXX")
              .string();
      if (mkdtemp(pattern.data()) == nullptr) {
        throw std::runtime_error("mkdtemp failed under " +
                                 ::testing::TempDir());
      }
      path = pattern + "/";
    }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// FNV-1a (64-bit) over the little-endian bytes of what is added; doubles
/// hash by bit pattern. Golden-digest tests compare value() with constants
/// recorded from a known-good build, so a change that alters any result
/// bit fails them.
class Fnv1a {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= static_cast<std::uint8_t>(x >> (8 * i));
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add_double(double x) { add(std::bit_cast<std::uint64_t>(x)); }
  void add_bytes(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<std::uint8_t>(c);
      hash_ *= 0x100000001b3ULL;
    }
  }

  /// Length first, then the elements.
  template <typename Range>
  void add_range(const Range& values) {
    add(std::size(values));
    for (const auto x : values) add(static_cast<std::uint64_t>(x));
  }

  void add(const SpreadResult& r) {
    add(r.completed ? 1u : 0u);
    add(r.rounds);
    add(r.final_count);
    add_range(r.curve);
    add(r.total_transmissions);
    add(r.peak_vertex_round_transmissions);
    add(r.delivered);
    add(r.dropped_channel);
    add(r.blocked_receiver);
    add_double(r.energy);
  }

  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace cobra
