// SPDX-License-Identifier: MIT
//
// Robustness of the .cgr loaders against hostile bytes:
//  * a crafted file whose offsets point past the adjacency section must be
//    rejected by the offsets check before any neighbour is read;
//  * a deterministic mutation fuzz (seeded byte flips, truncations,
//    header overwrites and splices over a v1, a weighted v2 and a
//    weighted 3-shard v3 file): read_cgr and map_cgr either both reject a
//    mutant with std::invalid_argument or both load the same graph, and
//    read_cgr_info throws nothing else. It runs in the sanitizer builds
//    too, where an out-of-bounds read fails it.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/weights.hpp"
#include "rand/rng.hpp"
#include "test_support.hpp"

namespace cobra {
namespace {

std::vector<unsigned char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// The message of the std::invalid_argument `load` throws; fails the test
/// when it returns or throws anything else.
std::string rejection(const std::function<void()>& load) {
  try {
    load();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "the load did not throw std::invalid_argument";
  return "";
}

TEST(CgrValidator, OffsetPastTheAdjacencyIsRejectedBeforeItIsRead) {
  // A 4-cycle plus two isolated vertices: n = 6, 2m = 8, offsets
  // {0, 2, 4, 6, 8, 8, 8}. Patching offsets[5] to 9 gives vertex 4 the
  // block [8, 9), one slot past the adjacency array.
  GraphBuilder builder(6);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  builder.add_edge(3, 0);
  const Graph g = builder.build("c4+2");
  const std::string path = test_temp_dir() + "offset_past_adjacency.cgr";
  write_cgr(g, path);
  std::vector<unsigned char> bytes = read_bytes(path);
  const std::size_t offsets_at = 32 + ((g.name().size() + 4 + 7) & ~7u);
  const std::uint32_t forged = 9;
  ASSERT_EQ(bytes.size(), offsets_at + 7 * 4 + 8 * 4);
  std::memcpy(bytes.data() + offsets_at + 5 * 4, &forged, 4);
  write_bytes(path, bytes);

  for (const auto& load : {std::function<void()>([&] { read_cgr(path); }),
                           std::function<void()>([&] { map_cgr(path); })}) {
    const std::string what = rejection(load);
    EXPECT_NE(what.find("offsets not monotone within the adjacency length "
                        "at vertex 4"),
              std::string::npos)
        << what;
  }
}

// ---- mutation fuzz ----

using Bytes = std::vector<unsigned char>;

/// Bytes from the start of the file to the offsets section: magic,
/// version, flags, n, 2m, the padded name and the v3 shard table.
std::size_t header_bytes(const std::string& path) {
  const CgrInfo info = read_cgr_info(path);
  const std::size_t table =
      info.version == 3 ? 16 + 8 * info.shard_endpoint_end.size() : 0;
  return 32 + ((info.name.size() + 4 + 7) & ~std::size_t{7}) + table;
}

/// One mutant of `base`; `donor` feeds the splices.
Bytes mutate(const Bytes& base, std::size_t header_end, const Bytes& donor,
             Rng& rng) {
  Bytes out = base;
  switch (rng.next_below(4)) {
    case 0: {  // flip 1..4 bits anywhere
      const std::uint64_t flips = 1 + rng.next_below(4);
      for (std::uint64_t i = 0; i < flips; ++i) {
        out[rng.next_below(out.size())] ^=
            static_cast<unsigned char>(1u << rng.next_below(8));
      }
      break;
    }
    case 1:  // truncate
      out.resize(rng.next_below(out.size()));
      break;
    case 2: {  // overwrite header bytes with boundary values
      static constexpr unsigned char kValues[] = {0x00, 0x01, 0x02, 0x03,
                                                  0x7f, 0x80, 0xfe, 0xff};
      const std::uint64_t writes = 1 + rng.next_below(4);
      for (std::uint64_t i = 0; i < writes; ++i) {
        out[rng.next_below(header_end)] =
            rng.next_below(2) == 0
                ? kValues[rng.next_below(std::size(kValues))]
                : static_cast<unsigned char>(rng.next_below(256));
      }
      break;
    }
    default: {  // splice: a prefix of base, then a suffix of the donor
      const std::size_t cut = rng.next_below(out.size() + 1);
      const std::size_t from = rng.next_below(donor.size() + 1);
      out.resize(cut);
      out.insert(out.end(), donor.begin() + static_cast<std::ptrdiff_t>(from),
                 donor.end());
      break;
    }
  }
  return out;
}

/// The graph `load` returns, or nullopt if it throws std::invalid_argument;
/// any other exception fails the test.
std::optional<Graph> try_load(const std::function<Graph()>& load,
                              const std::string& label) {
  try {
    return load();
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << " threw a non-invalid_argument: " << e.what();
    return std::nullopt;
  }
}

::testing::AssertionResult SameGraph(const Graph& a, const Graph& b) {
  if (a.name() != b.name()) {
    return ::testing::AssertionFailure()
           << "names differ: '" << a.name() << "' vs '" << b.name() << "'";
  }
  if (a.offsets_are_wide() != b.offsets_are_wide() ||
      !std::ranges::equal(a.offsets32(), b.offsets32()) ||
      !std::ranges::equal(a.offsets64(), b.offsets64())) {
    return ::testing::AssertionFailure() << "offsets differ";
  }
  if (!std::ranges::equal(a.adjacency(), b.adjacency())) {
    return ::testing::AssertionFailure() << "adjacency differs";
  }
  if (!std::ranges::equal(a.weights(), b.weights())) {
    return ::testing::AssertionFailure() << "weights differ";
  }
  return ::testing::AssertionSuccess();
}

TEST(CgrFuzz, LoadersAgreeOnEveryMutant) {
  constexpr std::size_t kMutantsPerFile = 3000;
  const std::string dir = test_temp_dir();
  std::vector<std::string> corpus;
  {
    // v1: G(56, 0.1) plus 8 isolated vertices, whose offsets all equal
    // 2m, so raising any of them points a block past the adjacency.
    Rng rng(4141);
    const Graph er = gen::erdos_renyi(56, 0.1, rng);
    GraphBuilder padded(64);
    for (Vertex v = 0; v < er.num_vertices(); ++v) {
      for (const Vertex w : er.neighbors(v)) {
        if (v < w) padded.add_edge(v, w);
      }
    }
    corpus.push_back(dir + "fuzz_v1.cgr");
    write_cgr(padded.build("er56+8"), corpus.back());
    Graph torus = gen::torus({8, 9});
    gen::generate_weights(torus, gen::WeightKind::kExp, 17);
    corpus.push_back(dir + "fuzz_v2.cgr");
    write_cgr(torus, corpus.back());
    Graph regular = gen::random_regular(80, 5, rng);
    gen::generate_weights(regular, gen::WeightKind::kUniform, 23);
    corpus.push_back(dir + "fuzz_v3.cgr");
    write_cgr(regular, corpus.back(), {.shards = 3});
  }
  std::vector<Bytes> bytes;
  for (const std::string& path : corpus) bytes.push_back(read_bytes(path));
  ASSERT_EQ(read_cgr_info(corpus[0]).version, 1u);
  ASSERT_EQ(read_cgr_info(corpus[1]).version, 2u);
  ASSERT_EQ(read_cgr_info(corpus[2]).version, 3u);

  const std::string path = dir + "fuzz_mutant.cgr";
  Rng rng(12345);
  std::size_t loaded = 0;
  std::size_t rejected = 0;
  for (std::size_t f = 0; f < corpus.size(); ++f) {
    const std::size_t header_end = header_bytes(corpus[f]);
    for (std::size_t i = 0; i < kMutantsPerFile; ++i) {
      const Bytes& donor = bytes[rng.next_below(bytes.size())];
      write_bytes(path, mutate(bytes[f], header_end, donor, rng));
      const std::string label =
          corpus[f] + " mutant " + std::to_string(i);
      const std::optional<Graph> read =
          try_load([&] { return read_cgr(path); }, label + " read_cgr");
      const std::optional<Graph> mapped =
          try_load([&] { return map_cgr(path); }, label + " map_cgr");
      try {
        (void)read_cgr_info(path);
      } catch (const std::invalid_argument&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << label << " read_cgr_info threw " << e.what();
      }
      ASSERT_EQ(read.has_value(), mapped.has_value())
          << label << ": one loader accepted what the other rejected";
      if (read.has_value()) {
        ASSERT_TRUE(SameGraph(*read, *mapped)) << label;
        ++loaded;
      } else {
        ++rejected;
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  RecordProperty("loaded", std::to_string(loaded));
  RecordProperty("rejected", std::to_string(rejected));
  // Both outcomes occur, so the property is exercised on each side.
  EXPECT_GT(loaded, kMutantsPerFile / 10);
  EXPECT_GT(rejected, kMutantsPerFile);
}

}  // namespace
}  // namespace cobra
