#include "qoc/data/images.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "qoc/common/parallel.hpp"

namespace qoc::data {

std::vector<double> center_crop(const Image& img, int crop) {
  if (crop <= 0 || crop > Image::kSize)
    throw std::invalid_argument("center_crop: bad crop size");
  const int off = (Image::kSize - crop) / 2;
  std::vector<double> out(static_cast<std::size_t>(crop) * crop);
  for (int r = 0; r < crop; ++r)
    for (int c = 0; c < crop; ++c)
      out[static_cast<std::size_t>(r) * crop + c] = img.at(r + off, c + off);
  return out;
}

std::vector<double> downsample(const std::vector<double>& img, int in_size,
                               int out_size) {
  if (in_size <= 0 || out_size <= 0 || in_size % out_size != 0)
    throw std::invalid_argument("downsample: out_size must divide in_size");
  if (img.size() != static_cast<std::size_t>(in_size) * in_size)
    throw std::invalid_argument("downsample: input size mismatch");
  const int k = in_size / out_size;
  std::vector<double> out(static_cast<std::size_t>(out_size) * out_size, 0.0);
  for (int r = 0; r < in_size; ++r)
    for (int c = 0; c < in_size; ++c)
      out[static_cast<std::size_t>(r / k) * out_size + (c / k)] +=
          img[static_cast<std::size_t>(r) * in_size + c];
  const double inv = 1.0 / (k * k);
  for (auto& v : out) v *= inv;
  return out;
}

std::vector<double> image_to_features(const Image& img, double angle_scale) {
  const auto cropped = center_crop(img, 24);
  auto pooled = downsample(cropped, 24, 4);
  for (auto& v : pooled) v *= angle_scale;
  return pooled;
}

SyntheticImages::SyntheticImages(Style style, int n_classes,
                                 std::uint64_t seed, double difficulty)
    : style_(style), n_classes_(n_classes), seed_(seed),
      difficulty_(difficulty) {
  if (n_classes < 2 || n_classes > 10)
    throw std::invalid_argument("SyntheticImages: n_classes out of [2,10]");
  if (difficulty < 0.0 || difficulty > 1.0)
    throw std::invalid_argument("SyntheticImages: difficulty out of [0,1]");
  templates_.resize(static_cast<std::size_t>(n_classes));
  for (int i = 0; i < n_classes; ++i)
    templates_[static_cast<std::size_t>(i)] = i;
}

void SyntheticImages::set_templates(std::vector<int> templates) {
  if (static_cast<int>(templates.size()) != n_classes_)
    throw std::invalid_argument("set_templates: size must equal n_classes");
  for (int t : templates)
    if (t < 0 || t > 9)
      throw std::invalid_argument("set_templates: prototype id out of [0,9]");
  templates_ = std::move(templates);
}

namespace {

// Pixels within `radius` of (cx, cy) lie in the disk's bounding box;
// outside it hypot(x, y) >= |x| > radius, so only the box (plus a
// 1-pixel margin against rounding) is scanned.
void draw_disk(Image& img, double cx, double cy, double radius,
               double intensity) {
  const auto lo = [&](double centre) {
    return static_cast<int>(std::clamp(std::floor(centre - radius) - 1, 0.0,
                                       double{Image::kSize}));
  };
  const auto hi = [&](double centre) {
    return static_cast<int>(std::clamp(std::ceil(centre + radius) + 1, -1.0,
                                       double{Image::kSize - 1}));
  };
  const int r1 = hi(cy), c1 = hi(cx);
  for (int r = lo(cy); r <= r1; ++r)
    for (int c = lo(cx); c <= c1; ++c) {
      const double d = std::hypot(r - cy, c - cx);
      if (d <= radius)
        img.at(r, c) = std::min(1.0, img.at(r, c) +
                                         intensity * (1.0 - d / (radius + 1)));
    }
}

void draw_stroke(Image& img, double x0, double y0, double x1, double y1,
                 double width, double intensity) {
  const int steps = 64;
  for (int s = 0; s <= steps; ++s) {
    const double t = static_cast<double>(s) / steps;
    draw_disk(img, x0 + t * (x1 - x0), y0 + t * (y1 - y0), width, intensity / 8);
  }
}

void draw_rect(Image& img, int r0, int c0, int r1, int c1, double intensity) {
  for (int r = std::max(0, r0); r <= std::min(Image::kSize - 1, r1); ++r)
    for (int c = std::max(0, c0); c <= std::min(Image::kSize - 1, c1); ++c)
      img.at(r, c) = std::min(1.0, img.at(r, c) + intensity);
}

}  // namespace

void SyntheticImages::paint_template(Image& img, int label, Prng& rng) const {
  // Per-example geometric jitter grows with difficulty.
  const double jit = 1.0 + 3.0 * difficulty_;
  const double jx = rng.normal(0.0, jit);
  const double jy = rng.normal(0.0, jit);
  const double bright = 0.85 + 0.15 * rng.uniform();

  if (style_ == Style::Digits) {
    // Stroke-based digit-like prototypes, one per class id.
    switch (label % 10) {
      case 0:  // ring
        for (int a = 0; a < 24; ++a) {
          const double ang = a * 2.0 * 3.14159265 / 24;
          draw_disk(img, 14 + jx + 7 * std::cos(ang), 14 + jy + 9 * std::sin(ang),
                    1.8, bright * 0.5);
        }
        break;
      case 1:  // vertical bar
        draw_stroke(img, 14 + jx, 4 + jy, 14 + jx, 24 + jy, 2.0, 8 * bright);
        break;
      case 2:  // top arc + bottom bar + diagonal
        draw_stroke(img, 8 + jx, 8 + jy, 20 + jx, 8 + jy, 1.8, 6 * bright);
        draw_stroke(img, 20 + jx, 8 + jy, 8 + jx, 22 + jy, 1.8, 6 * bright);
        draw_stroke(img, 8 + jx, 22 + jy, 20 + jx, 22 + jy, 1.8, 6 * bright);
        break;
      case 3:  // two right-facing arcs
        draw_stroke(img, 9 + jx, 6 + jy, 19 + jx, 6 + jy, 1.6, 6 * bright);
        draw_stroke(img, 19 + jx, 6 + jy, 12 + jx, 13 + jy, 1.6, 6 * bright);
        draw_stroke(img, 12 + jx, 13 + jy, 19 + jx, 21 + jy, 1.6, 6 * bright);
        draw_stroke(img, 19 + jx, 21 + jy, 9 + jx, 23 + jy, 1.6, 6 * bright);
        break;
      case 6:  // loop at bottom with a tail
        draw_stroke(img, 17 + jx, 5 + jy, 10 + jx, 14 + jy, 1.8, 6 * bright);
        for (int a = 0; a < 18; ++a) {
          const double ang = a * 2.0 * 3.14159265 / 18;
          draw_disk(img, 13.5 + jx + 4.5 * std::cos(ang),
                    18 + jy + 4.5 * std::sin(ang), 1.6, bright * 0.5);
        }
        break;
      default: {  // other digits: angled cross patterns keyed by label
        const double ang = label * 0.7;
        draw_stroke(img, 14 + jx - 8 * std::cos(ang), 14 + jy - 8 * std::sin(ang),
                    14 + jx + 8 * std::cos(ang), 14 + jy + 8 * std::sin(ang),
                    1.8, 6 * bright);
        draw_stroke(img, 14 + jx - 5 * std::sin(ang), 14 + jy + 5 * std::cos(ang),
                    14 + jx + 5 * std::sin(ang), 14 + jy - 5 * std::cos(ang),
                    1.5, 5 * bright);
        break;
      }
    }
    return;
  }

  // Fashion style: blocky garment-like silhouettes.
  const int j0 = static_cast<int>(std::lround(jx));
  const int j1 = static_cast<int>(std::lround(jy));
  switch (label % 10) {
    case 0:  // t-shirt/top: torso + sleeves
      draw_rect(img, 8 + j1, 9 + j0, 22 + j1, 18 + j0, 0.7 * bright);
      draw_rect(img, 8 + j1, 4 + j0, 12 + j1, 9 + j0, 0.6 * bright);
      draw_rect(img, 8 + j1, 18 + j0, 12 + j1, 23 + j0, 0.6 * bright);
      break;
    case 1:  // trouser: two legs
      draw_rect(img, 6 + j1, 9 + j0, 24 + j1, 12 + j0, 0.75 * bright);
      draw_rect(img, 6 + j1, 15 + j0, 24 + j1, 18 + j0, 0.75 * bright);
      draw_rect(img, 4 + j1, 9 + j0, 8 + j1, 18 + j0, 0.7 * bright);
      break;
    case 2:  // pullover: wide torso + long sleeves
      draw_rect(img, 7 + j1, 8 + j0, 23 + j1, 19 + j0, 0.65 * bright);
      draw_rect(img, 7 + j1, 2 + j0, 20 + j1, 8 + j0, 0.55 * bright);
      draw_rect(img, 7 + j1, 19 + j0, 20 + j1, 25 + j0, 0.55 * bright);
      break;
    case 3:  // dress: narrow top flaring to wide hem
      for (int r = 5; r <= 24; ++r) {
        const int half = 2 + (r - 5) * 5 / 19;
        draw_rect(img, r + j1, 14 - half + j0, r + j1, 14 + half + j0,
                  0.7 * bright);
      }
      break;
    default:  // shirt-like: torso + collar + buttons column
      draw_rect(img, 7 + j1, 9 + j0, 23 + j1, 19 + j0, 0.6 * bright);
      draw_rect(img, 5 + j1, 12 + j0, 9 + j1, 16 + j0, 0.5 * bright);
      for (int r = 9; r <= 21; r += 3)
        draw_disk(img, 14 + j0, r + j1, 0.8, 0.9 * bright);
      break;
  }
}

Image SyntheticImages::generate(int label, std::uint64_t index) const {
  if (label < 0 || label >= n_classes_)
    throw std::out_of_range("SyntheticImages::generate: label");
  // Deterministic per-(seed, label, index) stream.
  SplitMix64 mix(seed_ ^ (0x9E3779B97F4A7C15ULL * (index + 1)) ^
                 (0xC2B2AE3D27D4EB4FULL * static_cast<std::uint64_t>(label + 1)));
  Prng rng(mix.next());

  Image img;
  paint_template(img, templates_[static_cast<std::size_t>(label)], rng);

  // Pixel noise scales with difficulty; clamp back to [0, 1].
  const double noise = 0.05 + 0.30 * difficulty_;
  for (auto& p : img.pixels) {
    p += rng.normal(0.0, noise);
    p = std::clamp(p, 0.0, 1.0);
  }
  return img;
}

Dataset SyntheticImages::make_dataset(std::size_t n) const {
  // Each image draws from its own (seed, label, index) stream, so the
  // examples are generated in parallel into their slots.
  Dataset out;
  out.features.resize(n);
  out.labels.resize(n);
  parallel_for(0, n, [&](std::size_t i) {
    const int label = static_cast<int>(i % static_cast<std::size_t>(n_classes_));
    out.features[i] = image_to_features(generate(label, i));
    out.labels[i] = label;
  });
  out.validate();
  return out;
}

namespace {

TaskData split_task(const SyntheticImages& gen, std::size_t n_train,
                    std::size_t n_val, std::uint64_t seed) {
  // Generate a pool, take the front n_train as training (paper wording)
  // and a random sample of the remainder as validation.
  Dataset pool = gen.make_dataset(n_train + 4 * n_val);
  TaskData td;
  td.train = pool.front(n_train);
  Dataset rest;
  for (std::size_t i = n_train; i < pool.size(); ++i)
    rest.push(pool.features[i], pool.labels[i]);
  Prng rng(seed ^ 0x5A11DA7EULL);
  td.val = rest.sample(n_val, rng);
  return td;
}

}  // namespace

TaskData make_mnist2(std::uint64_t seed) {
  // Digits 3 and 6 remapped to classes {0, 1}.
  SyntheticImages gen(SyntheticImages::Style::Digits, 2, seed, 0.30);
  gen.set_templates({3, 6});
  return split_task(gen, 500, 300, seed);
}

TaskData make_mnist4(std::uint64_t seed) {
  SyntheticImages gen(SyntheticImages::Style::Digits, 4, seed, 0.30);
  return split_task(gen, 100, 300, seed);
}

TaskData make_fashion2(std::uint64_t seed) {
  SyntheticImages gen(SyntheticImages::Style::Fashion, 2, seed, 0.25);
  return split_task(gen, 500, 300, seed);
}

TaskData make_fashion4(std::uint64_t seed) {
  SyntheticImages gen(SyntheticImages::Style::Fashion, 4, seed, 0.28);
  return split_task(gen, 100, 300, seed);
}

}  // namespace qoc::data
