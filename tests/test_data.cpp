// Tests for the data substrate: dataset container, batch sampler, image
// pipeline, synthetic generators and PCA.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "qoc/common/prng.hpp"
#include "qoc/data/dataset.hpp"
#include "qoc/data/images.hpp"
#include "qoc/data/pca.hpp"
#include "qoc/data/vowel.hpp"

namespace {

using namespace qoc::data;
using qoc::Prng;

// ---- Dataset -----------------------------------------------------------------

TEST(Dataset, FrontTakesPrefix) {
  Dataset d;
  for (int i = 0; i < 10; ++i) d.push({static_cast<double>(i)}, i % 2);
  const Dataset f = d.front(3);
  EXPECT_EQ(f.size(), 3u);
  EXPECT_EQ(f.features[2][0], 2.0);
}

TEST(Dataset, SampleWithoutReplacementIsUnique) {
  Dataset d;
  for (int i = 0; i < 50; ++i) d.push({static_cast<double>(i)}, 0);
  Prng rng(1);
  const Dataset s = d.sample(20, rng);
  EXPECT_EQ(s.size(), 20u);
  std::set<double> seen;
  for (const auto& f : s.features) EXPECT_TRUE(seen.insert(f[0]).second);
}

TEST(Dataset, NumClassesIsMaxLabelPlusOne) {
  Dataset d;
  d.push({0.0}, 0);
  d.push({1.0}, 3);
  EXPECT_EQ(d.num_classes(), 4);
}

TEST(Dataset, ValidateCatchesRaggedFeatures) {
  Dataset d;
  d.push({0.0, 1.0}, 0);
  d.push({0.0}, 1);
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(BatchSampler, CoversEpochBeforeRepeating) {
  Dataset d;
  for (int i = 0; i < 8; ++i) d.push({static_cast<double>(i)}, 0);
  BatchSampler sampler(d, 4, 7);
  std::set<std::size_t> seen;
  for (const auto i : sampler.next()) seen.insert(i);
  for (const auto i : sampler.next()) seen.insert(i);
  EXPECT_EQ(seen.size(), 8u);  // first two batches == one full epoch
}

TEST(BatchSampler, RejectsEmptyDatasetOrZeroBatch) {
  Dataset d;
  EXPECT_THROW(BatchSampler(d, 4, 0), std::invalid_argument);
  d.push({0.0}, 0);
  EXPECT_THROW(BatchSampler(d, 0, 0), std::invalid_argument);
}

// ---- Image pipeline -------------------------------------------------------------

TEST(ImagePipeline, CenterCropTakesMiddle) {
  Image img;
  img.at(14, 14) = 1.0;  // center pixel survives any center crop
  img.at(0, 0) = 1.0;    // corner is cropped away
  const auto cropped = center_crop(img, 24);
  EXPECT_EQ(cropped.size(), 24u * 24u);
  EXPECT_EQ(cropped[(14 - 2) * 24 + (14 - 2)], 1.0);
  double corner_sum = 0;
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 2; ++c) corner_sum += cropped[r * 24 + c];
  EXPECT_EQ(corner_sum, 0.0);
}

TEST(ImagePipeline, DownsampleAveragesBlocks) {
  std::vector<double> img(24 * 24, 0.0);
  // Fill the top-left 6x6 block with 1 -> pooled pixel (0,0) == 1.
  for (int r = 0; r < 6; ++r)
    for (int c = 0; c < 6; ++c) img[r * 24 + c] = 1.0;
  const auto pooled = downsample(img, 24, 4);
  ASSERT_EQ(pooled.size(), 16u);
  EXPECT_NEAR(pooled[0], 1.0, 1e-12);
  for (std::size_t i = 1; i < 16; ++i) EXPECT_NEAR(pooled[i], 0.0, 1e-12);
}

TEST(ImagePipeline, DownsampleRejectsNonDivisible) {
  std::vector<double> img(25 * 25, 0.0);
  EXPECT_THROW(downsample(img, 25, 4), std::invalid_argument);
}

TEST(ImagePipeline, FeaturesBoundedByAngleScale) {
  SyntheticImages gen(SyntheticImages::Style::Digits, 2, 3);
  const Image img = gen.generate(0, 0);
  const auto f = image_to_features(img);
  EXPECT_EQ(f.size(), 16u);
  for (double v : f) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 3.1416);
  }
}

// ---- Synthetic images -----------------------------------------------------------

TEST(SyntheticImages, DeterministicPerSeedLabelIndex) {
  SyntheticImages gen(SyntheticImages::Style::Fashion, 4, 42);
  const Image a = gen.generate(2, 17);
  const Image b = gen.generate(2, 17);
  EXPECT_EQ(a.pixels, b.pixels);
  const Image c = gen.generate(2, 18);
  EXPECT_NE(a.pixels, c.pixels);
}

TEST(SyntheticImages, DifferentClassesAreSeparated) {
  // Mean pooled features should differ meaningfully across classes.
  SyntheticImages gen(SyntheticImages::Style::Digits, 2, 5, 0.2);
  std::vector<double> mean0(16, 0.0), mean1(16, 0.0);
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    const auto f0 = image_to_features(gen.generate(0, i));
    const auto f1 = image_to_features(gen.generate(1, i));
    for (int k = 0; k < 16; ++k) {
      mean0[k] += f0[k] / n;
      mean1[k] += f1[k] / n;
    }
  }
  double dist = 0;
  for (int k = 0; k < 16; ++k) dist += std::abs(mean0[k] - mean1[k]);
  EXPECT_GT(dist, 0.5);
}

TEST(SyntheticImages, MakeDatasetBalancedRoundRobin) {
  SyntheticImages gen(SyntheticImages::Style::Fashion, 4, 9);
  const Dataset d = gen.make_dataset(40);
  int counts[4] = {0, 0, 0, 0};
  for (int y : d.labels) ++counts[y];
  for (int k = 0; k < 4; ++k) EXPECT_EQ(counts[k], 10);
  EXPECT_EQ(d.feature_dim(), 16u);
}

TEST(SyntheticImages, TemplateRemapChangesContent) {
  SyntheticImages a(SyntheticImages::Style::Digits, 2, 6);
  SyntheticImages b(SyntheticImages::Style::Digits, 2, 6);
  b.set_templates({3, 6});
  EXPECT_NE(a.generate(0, 0).pixels, b.generate(0, 0).pixels);
}

TEST(SyntheticImages, RejectsBadConfigs) {
  EXPECT_THROW(SyntheticImages(SyntheticImages::Style::Digits, 1, 0),
               std::invalid_argument);
  SyntheticImages gen(SyntheticImages::Style::Digits, 2, 0);
  EXPECT_THROW(gen.set_templates({1}), std::invalid_argument);
  EXPECT_THROW(gen.set_templates({1, 11}), std::invalid_argument);
  EXPECT_THROW(gen.generate(5, 0), std::out_of_range);
}

TEST(TaskFactories, SplitSizesMatchPaper) {
  const TaskData m2 = make_mnist2();
  EXPECT_EQ(m2.train.size(), 500u);
  EXPECT_EQ(m2.val.size(), 300u);
  const TaskData m4 = make_mnist4();
  EXPECT_EQ(m4.train.size(), 100u);
  EXPECT_EQ(m4.val.size(), 300u);
  EXPECT_EQ(m4.train.num_classes(), 4);
}

/// 64-bit FNV-1a, as hex, over the bit patterns of every train and val
/// feature and label, in order.
std::string split_digest(const Dataset& train, const Dataset& val) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto add = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Dataset* d : {&train, &val}) {
    add(d->size());
    for (std::size_t i = 0; i < d->size(); ++i) {
      add(d->features[i].size());
      for (const double v : d->features[i]) add(std::bit_cast<std::uint64_t>(v));
      add(static_cast<std::uint64_t>(d->labels[i]));
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
  return hex;
}

TEST(TaskFactories, DatasetsAreBitIdentical) {
  // Pins the five paper tasks' default datasets bit for bit: any change
  // to synthesis, cropping, pooling, splitting or PCA that moves one
  // feature bit fails here.
  const TaskData m4 = make_mnist4();
  const TaskData m2 = make_mnist2();
  const TaskData f4 = make_fashion4();
  const TaskData f2 = make_fashion2();
  const VowelTask v4 = make_vowel4();
  EXPECT_EQ(split_digest(m4.train, m4.val), "3c015079b36111fa");
  EXPECT_EQ(split_digest(m2.train, m2.val), "61d523b18858a583");
  EXPECT_EQ(split_digest(f4.train, f4.val), "66b5fe4f3f894c86");
  EXPECT_EQ(split_digest(f2.train, f2.val), "9181c60df7bb64cf");
  EXPECT_EQ(split_digest(v4.train, v4.val), "39c3dad2bb7d376c");
}

// ---- PCA -------------------------------------------------------------------------

TEST(Pca, ComponentsAreOrthonormal) {
  Prng rng(10);
  std::vector<std::vector<double>> samples;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x(6);
    for (auto& v : x) v = rng.normal();
    samples.push_back(x);
  }
  const Pca pca(samples, 4);
  const auto& comps = pca.components();
  for (std::size_t a = 0; a < comps.size(); ++a)
    for (std::size_t b = 0; b < comps.size(); ++b) {
      double dot = 0;
      for (std::size_t i = 0; i < 6; ++i) dot += comps[a][i] * comps[b][i];
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-8);
    }
}

TEST(Pca, VarianceDescendingAndNonNegative) {
  Prng rng(11);
  std::vector<std::vector<double>> samples;
  for (int i = 0; i < 100; ++i) {
    std::vector<double> x(5);
    for (int d = 0; d < 5; ++d) x[d] = rng.normal(0.0, 1.0 + d);
    samples.push_back(x);
  }
  const Pca pca(samples, 5);
  const auto& var = pca.explained_variance();
  for (std::size_t k = 0; k < var.size(); ++k) {
    EXPECT_GE(var[k], -1e-9);
    if (k > 0) EXPECT_LE(var[k], var[k - 1] + 1e-9);
  }
}

TEST(Pca, RecoversDominantDirection) {
  // Data along (1,1)/sqrt(2) with small orthogonal noise.
  Prng rng(12);
  std::vector<std::vector<double>> samples;
  for (int i = 0; i < 500; ++i) {
    const double t = rng.normal(0.0, 3.0);
    const double n = rng.normal(0.0, 0.1);
    samples.push_back({t + n, t - n});
  }
  const Pca pca(samples, 1);
  const auto& c0 = pca.components()[0];
  const double s = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(c0[0] * s + c0[1] * s), 1.0, 1e-3);
}

TEST(Pca, FullRankTransformIsLossless) {
  Prng rng(13);
  std::vector<std::vector<double>> samples;
  for (int i = 0; i < 50; ++i) {
    std::vector<double> x(4);
    for (auto& v : x) v = rng.normal();
    samples.push_back(x);
  }
  const Pca pca(samples, 4);
  const auto& x = samples[7];
  const auto rec = pca.inverse_transform(pca.transform(x));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(rec[i], x[i], 1e-8);
}

TEST(Pca, TruncatedReconstructionErrorDecreasesWithK) {
  Prng rng(14);
  std::vector<std::vector<double>> samples;
  for (int i = 0; i < 300; ++i) {
    std::vector<double> x(8);
    for (int d = 0; d < 8; ++d) x[d] = rng.normal(0.0, 1.0 + 2.0 * (7 - d));
    samples.push_back(x);
  }
  auto recon_error = [&](std::size_t k) {
    const Pca pca(samples, k);
    double err = 0;
    for (const auto& x : samples) {
      const auto rec = pca.inverse_transform(pca.transform(x));
      for (std::size_t i = 0; i < x.size(); ++i)
        err += (rec[i] - x[i]) * (rec[i] - x[i]);
    }
    return err;
  };
  EXPECT_GT(recon_error(2), recon_error(4));
  EXPECT_GT(recon_error(4), recon_error(7));
}

TEST(Pca, RejectsBadInputs) {
  EXPECT_THROW(Pca({}, 1), std::invalid_argument);
  EXPECT_THROW(Pca({{1.0, 2.0}}, 3), std::invalid_argument);
  EXPECT_THROW(Pca({{1.0, 2.0}, {1.0}}, 1), std::invalid_argument);
}

// ---- Vowel task -------------------------------------------------------------------

TEST(Vowel, TaskShapesMatchPaper) {
  const VowelTask t = make_vowel4();
  EXPECT_EQ(t.train.size(), 100u);
  EXPECT_EQ(t.val.size(), 300u);
  EXPECT_EQ(t.train.feature_dim(), 10u);
  EXPECT_EQ(t.val.feature_dim(), 10u);
  EXPECT_EQ(t.train.num_classes(), 4);
}

TEST(Vowel, FeaturesWithinAngleRange) {
  const VowelTask t = make_vowel4();
  for (const auto& f : t.train.features)
    for (double v : f) EXPECT_LE(std::abs(v), 3.1416 / 2.0 + 1e-9);
}

TEST(Vowel, RawGeneratorDeterministic) {
  SyntheticVowel a(4, 99), b(4, 99);
  const Dataset da = a.make_raw(20);
  const Dataset db = b.make_raw(20);
  EXPECT_EQ(da.features, db.features);
  EXPECT_EQ(da.labels, db.labels);
}

TEST(Vowel, RejectsBadConfig) {
  EXPECT_THROW(SyntheticVowel(1, 0), std::invalid_argument);
  EXPECT_THROW(SyntheticVowel(4, 0, 1), std::invalid_argument);
  EXPECT_THROW(SyntheticVowel(4, 0, 20, -1.0), std::invalid_argument);
}

}  // namespace
