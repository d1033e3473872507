#include "nn/nodes.h"

#include <algorithm>
#include <cmath>

#include "core/packed_codes.h"
#include "util/stats.h"

namespace lp::nn {
namespace {

/// Copy a column block [c0, c1) of a [R, D] matrix into a fresh [R, c1-c0].
Tensor copy_cols(const Tensor& m, std::int64_t c0, std::int64_t c1) {
  const std::int64_t r = m.dim(0);
  const std::int64_t d = m.dim(1);
  LP_DCHECK(c0 >= 0 && c1 <= d && c0 < c1);
  Tensor out({r, c1 - c0});
  for (std::int64_t i = 0; i < r; ++i) {
    std::copy_n(m.raw() + i * d + c0, c1 - c0, out.raw() + i * (c1 - c0));
  }
  return out;
}

/// Capture hook shared by weighted nodes.
void capture_pooled(const RunCtx& ctx, const Tensor& out) {
  if (ctx.pooled_capture != nullptr) ctx.pooled_capture->push_back(kurtosis_pool(out));
  if (ctx.act_scale_capture != nullptr) {
    ctx.act_scale_capture->push_back(static_cast<float>(mean_abs(out.data())));
  }
  if (ctx.act_max_capture != nullptr) {
    float mx = 0.0F;
    for (float v : out.data()) mx = std::max(mx, std::fabs(v));
    ctx.act_max_capture->push_back(mx);
  }
}

/// nn::Act as the kernel layer's epilogue selector.
int act_kernel(Act act) {
  switch (act) {
    case Act::kNone: return kernels::kActNone;
    case Act::kRelu: return kernels::kActRelu;
    case Act::kRelu6: return kernels::kActRelu6;
    case Act::kGelu: return kernels::kActGelu;
  }
  return kernels::kActNone;
}

/// The coded-output spec for a slot, or null when its edge is float or
/// this run's hooks force the float path (value captures read float
/// activations).
const ActCoding* out_coding(const RunCtx& ctx, int slot) {
  return ctx.capturing() ? nullptr : ctx.slot(slot).out;
}

/// Encode-epilogue spec for a coded output edge, applying `act` first.
ActEncodeSpec encode_spec(const ActCoding& c, int act) {
  return {c.qidx->view(), c.lut, c.bits, act};
}

void count_coded(const RunCtx& ctx, const PackedCodes& out) {
  if (ctx.act_traffic != nullptr) {
    ctx.act_traffic->coded_bytes +=
        static_cast<std::int64_t>(out.payload_bytes());
  }
}

void count_float(const RunCtx& ctx, const Tensor& out) {
  if (ctx.act_traffic != nullptr) {
    ctx.act_traffic->float_bytes +=
        out.numel() * static_cast<std::int64_t>(sizeof(float));
  }
}

/// Post-GEMM tail for a weighted node holding a float result with the
/// nonlinearity already applied: on a coded edge, encode it (the decoded
/// stream equals the quantized floats); on encode failure (non-finite
/// elements) or a float edge, quantize in place through `fmt` — the two
/// tails produce value-identical activations.
NodeValue finish_act(const RunCtx& ctx, const ActCoding* coding,
                     const NumberFormat* fmt, Tensor out) {
  if (coding != nullptr) {
    auto enc = encode_acts(out, encode_spec(*coding, kernels::kActNone));
    if (enc.has_value()) {
      count_coded(ctx, *enc);
      return NodeValue(std::move(*enc));
    }
  }
  quantize_activations(out, fmt);
  capture_pooled(ctx, out);
  count_float(ctx, out);
  return NodeValue(std::move(out));
}

}  // namespace

const Tensor& NodeValue::dense() const {
  if (!has_dense_) {
    LP_CHECK_MSG(codes_.has_value(), "dense() on an empty NodeValue");
    Tensor t(codes_->shape());
    codes_->decode(t.data());
    dense_ = std::move(t);
    has_dense_ = true;
  }
  return dense_;
}

Tensor NodeValue::into_dense() && {
  (void)dense();
  has_dense_ = false;
  return std::move(dense_);
}

void apply_act(Tensor& t, Act act) {
  switch (act) {
    case Act::kNone: return;
    case Act::kRelu: relu_inplace(t); return;
    case Act::kRelu6: relu6_inplace(t); return;
    case Act::kGelu: gelu_inplace(t); return;
  }
}

void quantize_activations(Tensor& t, const NumberFormat* fmt) {
  if (fmt == nullptr) return;
  quantize_inplace(t, *fmt);
}

std::vector<float> kurtosis_pool(const Tensor& t) {
  LP_CHECK(t.rank() >= 1 && t.numel() > 0);
  const std::int64_t b = t.dim(0);
  const std::int64_t per = t.numel() / b;
  std::vector<float> out(static_cast<std::size_t>(b));
  for (std::int64_t i = 0; i < b; ++i) {
    const std::span<const float> row(t.raw() + i * per,
                                     static_cast<std::size_t>(per));
    out[static_cast<std::size_t>(i)] = static_cast<float>(kurtosis3(row));
  }
  return out;
}

NodeValue InputNode::run(std::span<const NodeValue* const>,
                         const RunCtx&) const {
  LP_ASSERT_MSG(false, "InputNode::run must not be called; the executor "
                       "substitutes the batch directly");
}

Conv2dNode::Conv2dNode(int input, std::string name, Tensor weight, Tensor bias,
                       Conv2dSpec spec, Act act, int block_id)
    : Node({input}, std::move(name)), spec_(spec), act_(act) {
  LP_CHECK(weight.rank() == 4);
  slot_.name = this->name() + ".w";
  slot_.weight = std::move(weight);
  slot_.bias = std::move(bias);
  slot_.block_id = block_id;
}

NodeValue Conv2dNode::run(std::span<const NodeValue* const> x,
                          const RunCtx& ctx) const {
  const int s = first_slot();
  const SlotPlan& p = ctx.slot(s);
  const Tensor& w = p.weight_or(slot_.weight);
  const NodeValue& in = *x[0];
  if (ctx.workloads != nullptr) {
    const auto& ish = in.shape();
    const std::int64_t ho =
        conv_out_dim(ish[2], w.dim(2), spec_.stride, spec_.padding);
    const std::int64_t wo =
        conv_out_dim(ish[3], w.dim(3), spec_.stride, spec_.padding);
    ctx.workloads->push_back({name(), w.dim(0),
                              w.dim(1) * w.dim(2) * w.dim(3),
                              ish[0] * ho * wo, s});
  }
  const Tensor* bias = slot_.bias.empty() ? nullptr : &slot_.bias;
  const ActCoding* coding = out_coding(ctx, s);
  const PackedCodes* icodes = in.codes();
  // Coded patches need a code that decodes to the float im2col's exact
  // padding zero; a LUT without one drops the edge to the dense input.
  const std::int64_t zc =
      icodes != nullptr ? lut_zero_code(*icodes->lut()) : -1;
  const bool coded_in = zc >= 0;

  // Coded weights, coded output: bias+act+encode run fused in the conv
  // scatter, so the output never materializes as floats — whether the
  // patches gather as codes or from a dense input.
  if (p.codes != nullptr && coding != nullptr) {
    const ActEncodeSpec enc = encode_spec(*coding, act_kernel(act_));
    auto out = coded_in
                   ? conv2d_codes_codes_enc(*icodes, *p.codes, bias, spec_,
                                            static_cast<std::uint32_t>(zc), enc)
                   : conv2d_codes_enc(in.dense(), *p.codes, bias, spec_, enc);
    if (out.has_value()) {
      count_coded(ctx, *out);
      return NodeValue(std::move(*out));
    }
  }
  // A float edge, float weights, or the non-finite escape: finish the
  // float block, then encode or quantize it.
  Tensor out;
  if (p.codes != nullptr && coded_in) {
    out = conv2d_codes_codes(*icodes, *p.codes, bias, spec_,
                             static_cast<std::uint32_t>(zc));
  } else if (p.codes != nullptr) {
    out = conv2d_codes(in.dense(), *p.codes, bias, spec_);
  } else {
    out = conv2d(in.dense(), w, bias, spec_);
  }
  apply_act(out, act_);
  return finish_act(ctx, coding, p.act, std::move(out));
}

LinearNode::LinearNode(int input, std::string name, Tensor weight, Tensor bias,
                       Act act, int block_id)
    : Node({input}, std::move(name)), act_(act) {
  LP_CHECK(weight.rank() == 2);
  slot_.name = this->name() + ".w";
  slot_.weight = std::move(weight);
  slot_.bias = std::move(bias);
  slot_.block_id = block_id;
}

NodeValue LinearNode::run(std::span<const NodeValue* const> x,
                          const RunCtx& ctx) const {
  const int s = first_slot();
  const SlotPlan& p = ctx.slot(s);
  const Tensor& w = p.weight_or(slot_.weight);
  const NodeValue& in = *x[0];
  const auto& ish = in.shape();
  LP_CHECK(ish.size() == 2 || ish.size() == 3);
  const std::int64_t rows = ish.size() == 3 ? ish[0] * ish[1] : ish[0];
  if (ctx.workloads != nullptr) {
    ctx.workloads->push_back({name(), w.dim(0), w.dim(1), rows, s});
  }
  const Tensor* bias = slot_.bias.empty() ? nullptr : &slot_.bias;
  const ActCoding* coding = out_coding(ctx, s);
  const PackedCodes* icodes = in.codes();
  // The dense kernels take rank-3 token activations as [rows, K].
  auto dense_rows = [&] {
    const Tensor& d = in.dense();
    return ish.size() == 3 ? d.reshaped({rows, ish[2]}) : d;
  };

  // Coded weights, coded output: GEMM→bias→act→encode in one kernel pass,
  // so the layer's activations never exist as a float tensor — whether
  // the input arrived as codes or dense.
  if (p.codes != nullptr && coding != nullptr) {
    const ActEncodeSpec enc = encode_spec(*coding, act_kernel(act_));
    auto out = icodes != nullptr
                   ? matmul_nt_codes_codes_enc(*icodes, *p.codes, bias, enc,
                                               ctx.approx)
                   : matmul_nt_codes_enc(dense_rows(), *p.codes, bias, enc,
                                         ctx.approx);
    if (out.has_value()) {
      if (ish.size() == 3) out->reshape({ish[0], ish[1], w.dim(0)});
      count_coded(ctx, *out);
      return NodeValue(std::move(*out));
    }
  }
  // A float edge, float weights, or the non-finite escape: finish the
  // float block, then encode or quantize it.
  Tensor out;
  if (p.codes != nullptr && icodes != nullptr) {
    out = matmul_nt_codes_codes(*icodes, *p.codes, bias, ctx.approx);
  } else if (p.codes != nullptr) {
    out = matmul_nt_codes(dense_rows(), *p.codes, bias, ctx.approx);
  } else {
    out = matmul_nt(dense_rows(), w, bias);
  }
  if (ish.size() == 3) out = out.reshaped({ish[0], ish[1], w.dim(0)});
  apply_act(out, act_);
  return finish_act(ctx, coding, p.act, std::move(out));
}

AttentionNode::AttentionNode(int input, std::string name, int dim, int heads,
                             std::array<Tensor, 4> weights,
                             std::array<Tensor, 4> biases, int block_id,
                             int window, int grid_h, int grid_w)
    : Node({input}, std::move(name)), dim_(dim), heads_(heads), window_(window),
      grid_h_(grid_h), grid_w_(grid_w) {
  LP_CHECK(dim > 0 && heads > 0 && dim % heads == 0);
  static constexpr const char* kProj[4] = {".wq", ".wk", ".wv", ".wo"};
  for (int i = 0; i < 4; ++i) {
    LP_CHECK(weights[static_cast<std::size_t>(i)].rank() == 2);
    auto& sl = slots_[static_cast<std::size_t>(i)];
    sl.name = this->name() + kProj[i];
    sl.weight = std::move(weights[static_cast<std::size_t>(i)]);
    sl.bias = std::move(biases[static_cast<std::size_t>(i)]);
    sl.block_id = block_id;
  }
  if (window_ > 0) {
    LP_CHECK(grid_h_ % window_ == 0 && grid_w_ % window_ == 0);
  }
}

Tensor AttentionNode::attend(const Tensor& tokens, const RunCtx& ctx) const {
  // tokens: [B, T, D] (possibly window-partitioned batches).
  const std::int64_t b = tokens.dim(0);
  const std::int64_t t = tokens.dim(1);
  const std::int64_t d = tokens.dim(2);
  const std::int64_t dh = d / heads_;
  const int s0 = first_slot();

  const Tensor flat = tokens.reshaped({b * t, d});
  std::array<Tensor, 3> qkv;
  for (int i = 0; i < 3; ++i) {
    const auto& sl = slots_[static_cast<std::size_t>(i)];
    const SlotPlan& p = ctx.slot(s0 + i);
    const Tensor& w = p.weight_or(sl.weight);
    if (ctx.workloads != nullptr) {
      ctx.workloads->push_back({name() + '.' + "qkv"[i], w.dim(0), w.dim(1),
                                b * t, s0 + i});
    }
    const Tensor* bias = sl.bias.empty() ? nullptr : &sl.bias;
    qkv[static_cast<std::size_t>(i)] =
        p.codes != nullptr ? matmul_nt_codes(flat, *p.codes, bias, ctx.approx)
                           : matmul_nt(flat, w, bias);
    quantize_activations(qkv[static_cast<std::size_t>(i)], p.act);
  }
  if (ctx.workloads != nullptr) {
    // Activation-activation matmuls: scores and attention-times-values.
    ctx.workloads->push_back({name() + ".qk", t, dh, t * b * heads_, -1});
    ctx.workloads->push_back({name() + ".av", t, t, dh * b * heads_, -1});
  }

  const float inv_sqrt_dh = 1.0F / std::sqrt(static_cast<float>(dh));
  Tensor concat({b * t, d});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (int h = 0; h < heads_; ++h) {
      const std::int64_t c0 = h * dh;
      // Slice this sample's token rows, then this head's columns.
      auto head_slice = [&](const Tensor& m) {
        Tensor rows({t, d});
        std::copy_n(m.raw() + bi * t * d, t * d, rows.raw());
        return copy_cols(rows, c0, c0 + dh);
      };
      const Tensor qh = head_slice(qkv[0]);
      const Tensor kh = head_slice(qkv[1]);
      const Tensor vh = head_slice(qkv[2]);
      Tensor scores = matmul_nt(qh, kh);
      scale_inplace(scores, inv_sqrt_dh);
      scores = softmax_lastdim(scores);
      const Tensor ctx_out = matmul(scores, vh);  // [t, dh]
      for (std::int64_t ti = 0; ti < t; ++ti) {
        std::copy_n(ctx_out.raw() + ti * dh, dh,
                    concat.raw() + (bi * t + ti) * d + c0);
      }
    }
  }
  // The v-projection's activation format also covers the softmax(QK)V
  // output (the PPU requantizes partial results on-chip).
  quantize_activations(concat, ctx.slot(s0 + 2).act);

  const auto& so = slots_[3];
  const SlotPlan& po = ctx.slot(s0 + 3);
  const Tensor& wo = po.weight_or(so.weight);
  if (ctx.workloads != nullptr) {
    ctx.workloads->push_back({name() + ".o", wo.dim(0), wo.dim(1), b * t, s0 + 3});
  }
  const Tensor* obias = so.bias.empty() ? nullptr : &so.bias;
  Tensor out = po.codes != nullptr
                   ? matmul_nt_codes(concat, *po.codes, obias, ctx.approx)
                   : matmul_nt(concat, wo, obias);
  quantize_activations(out, po.act);
  return out.reshaped({b, t, d});
}

NodeValue AttentionNode::run(std::span<const NodeValue* const> x,
                             const RunCtx& ctx) const {
  // Attention consumes floats (its head slicing and softmax stay dense);
  // a coded input decodes to the float path's exact tensor.
  const Tensor& in = x[0]->dense();
  LP_CHECK(in.rank() == 3);
  LP_CHECK_MSG(in.dim(2) == dim_, "attention dim mismatch");
  Tensor out;
  if (window_ <= 0) {
    out = attend(in, ctx);
  } else {
    // Partition the (grid_h x grid_w) token grid into window x window tiles,
    // treat each tile as an independent attention batch, then un-partition.
    const std::int64_t b = in.dim(0);
    const std::int64_t t = in.dim(1);
    LP_CHECK(t == static_cast<std::int64_t>(grid_h_) * grid_w_);
    const std::int64_t nh = grid_h_ / window_;
    const std::int64_t nw = grid_w_ / window_;
    const std::int64_t wt = static_cast<std::int64_t>(window_) * window_;
    Tensor part({b * nh * nw, wt, dim_});
    for (std::int64_t bi = 0; bi < b; ++bi) {
      for (std::int64_t wy = 0; wy < nh; ++wy) {
        for (std::int64_t wx = 0; wx < nw; ++wx) {
          const std::int64_t wb = (bi * nh + wy) * nw + wx;
          for (std::int64_t iy = 0; iy < window_; ++iy) {
            for (std::int64_t ix = 0; ix < window_; ++ix) {
              const std::int64_t tok = (wy * window_ + iy) * grid_w_ +
                                       wx * window_ + ix;
              std::copy_n(in.raw() + (bi * t + tok) * dim_, dim_,
                          part.raw() + (wb * wt + iy * window_ + ix) * dim_);
            }
          }
        }
      }
    }
    const Tensor attended = attend(part, ctx);
    out = Tensor({b, t, static_cast<std::int64_t>(dim_)});
    for (std::int64_t bi = 0; bi < b; ++bi) {
      for (std::int64_t wy = 0; wy < nh; ++wy) {
        for (std::int64_t wx = 0; wx < nw; ++wx) {
          const std::int64_t wb = (bi * nh + wy) * nw + wx;
          for (std::int64_t iy = 0; iy < window_; ++iy) {
            for (std::int64_t ix = 0; ix < window_; ++ix) {
              const std::int64_t tok = (wy * window_ + iy) * grid_w_ +
                                       wx * window_ + ix;
              std::copy_n(attended.raw() + (wb * wt + iy * window_ + ix) * dim_,
                          dim_, out.raw() + (bi * t + tok) * dim_);
            }
          }
        }
      }
    }
  }
  capture_pooled(ctx, out);
  count_float(ctx, out);
  return NodeValue(std::move(out));
}

NodeValue MaxPoolNode::run(std::span<const NodeValue* const> x,
                           const RunCtx&) const {
  return max_pool2d(x[0]->dense(), kernel_, stride_, padding_);
}

NodeValue GlobalAvgPoolNode::run(std::span<const NodeValue* const> x,
                                 const RunCtx&) const {
  return global_avg_pool(x[0]->dense());
}

NodeValue AddNode::run(std::span<const NodeValue* const> x,
                       const RunCtx&) const {
  Tensor out = add(x[0]->dense(), x[1]->dense());
  apply_act(out, act_);
  return out;
}

NodeValue LayerNormNode::run(std::span<const NodeValue* const> x,
                             const RunCtx&) const {
  return layernorm_lastdim(x[0]->dense(), gamma_, beta_);
}

NodeValue ToTokensNode::run(std::span<const NodeValue* const> x,
                            const RunCtx&) const {
  const Tensor& in = x[0]->dense();
  LP_CHECK(in.rank() == 4);
  const std::int64_t b = in.dim(0);
  const std::int64_t c = in.dim(1);
  const std::int64_t hw = in.dim(2) * in.dim(3);
  Tensor out({b, hw, c});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      const float* src = in.raw() + (bi * c + ci) * hw;
      for (std::int64_t p = 0; p < hw; ++p) {
        out.raw()[(bi * hw + p) * c + ci] = src[p];
      }
    }
  }
  return out;
}

NodeValue ClsPosNode::run(std::span<const NodeValue* const> x,
                          const RunCtx&) const {
  const Tensor& in = x[0]->dense();
  LP_CHECK(in.rank() == 3);
  const std::int64_t b = in.dim(0);
  const std::int64_t t = in.dim(1);
  const std::int64_t d = in.dim(2);
  LP_CHECK(cls_.rank() == 1 && cls_.dim(0) == d);
  LP_CHECK(pos_.rank() == 2 && pos_.dim(0) == t + 1 && pos_.dim(1) == d);
  Tensor out({b, t + 1, d});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    float* dst = out.raw() + bi * (t + 1) * d;
    for (std::int64_t j = 0; j < d; ++j) dst[j] = cls_[j] + pos_.at2(0, j);
    for (std::int64_t ti = 0; ti < t; ++ti) {
      const float* src = in.raw() + (bi * t + ti) * d;
      float* drow = dst + (ti + 1) * d;
      const float* prow = pos_.raw() + (ti + 1) * d;
      for (std::int64_t j = 0; j < d; ++j) drow[j] = src[j] + prow[j];
    }
  }
  return out;
}

NodeValue PosEmbedNode::run(std::span<const NodeValue* const> x,
                            const RunCtx&) const {
  const Tensor& in = x[0]->dense();
  LP_CHECK(in.rank() == 3);
  const std::int64_t b = in.dim(0);
  const std::int64_t t = in.dim(1);
  const std::int64_t d = in.dim(2);
  LP_CHECK(pos_.rank() == 2 && pos_.dim(0) == t && pos_.dim(1) == d);
  Tensor out = in;
  for (std::int64_t bi = 0; bi < b; ++bi) {
    float* dst = out.raw() + bi * t * d;
    for (std::int64_t i = 0; i < t * d; ++i) dst[i] += pos_.raw()[i];
  }
  return out;
}

NodeValue ClsSelectNode::run(std::span<const NodeValue* const> x,
                             const RunCtx&) const {
  const Tensor& in = x[0]->dense();
  LP_CHECK(in.rank() == 3);
  const std::int64_t b = in.dim(0);
  const std::int64_t t = in.dim(1);
  const std::int64_t d = in.dim(2);
  Tensor out({b, d});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    std::copy_n(in.raw() + bi * t * d, d, out.raw() + bi * d);
  }
  return out;
}

NodeValue TokenMeanNode::run(std::span<const NodeValue* const> x,
                             const RunCtx&) const {
  const Tensor& in = x[0]->dense();
  LP_CHECK(in.rank() == 3);
  const std::int64_t b = in.dim(0);
  const std::int64_t t = in.dim(1);
  const std::int64_t d = in.dim(2);
  LP_CHECK(t > 0);
  Tensor out({b, d});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    float* dst = out.raw() + bi * d;
    for (std::int64_t ti = 0; ti < t; ++ti) {
      const float* src = in.raw() + (bi * t + ti) * d;
      for (std::int64_t j = 0; j < d; ++j) dst[j] += src[j];
    }
    const float inv = 1.0F / static_cast<float>(t);
    for (std::int64_t j = 0; j < d; ++j) dst[j] *= inv;
  }
  return out;
}

PatchMergeNode::PatchMergeNode(int input, std::string name, int grid_h,
                               int grid_w, Tensor weight, Tensor bias,
                               int block_id)
    : Node({input}, std::move(name)), grid_h_(grid_h), grid_w_(grid_w) {
  LP_CHECK(grid_h % 2 == 0 && grid_w % 2 == 0);
  LP_CHECK(weight.rank() == 2);
  slot_.name = this->name() + ".w";
  slot_.weight = std::move(weight);
  slot_.bias = std::move(bias);
  slot_.block_id = block_id;
}

NodeValue PatchMergeNode::run(std::span<const NodeValue* const> x,
                              const RunCtx& ctx) const {
  // The 2x2 gather works on floats; a coded input decodes first.
  const Tensor& in = x[0]->dense();
  LP_CHECK(in.rank() == 3);
  const std::int64_t b = in.dim(0);
  const std::int64_t t = in.dim(1);
  const std::int64_t d = in.dim(2);
  LP_CHECK(t == static_cast<std::int64_t>(grid_h_) * grid_w_);
  const std::int64_t oh = grid_h_ / 2;
  const std::int64_t ow = grid_w_ / 2;
  // Gather 2x2 neighbourhoods into [b*oh*ow, 4d].
  Tensor gathered({b * oh * ow, 4 * d});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        float* dst = gathered.raw() + ((bi * oh + oy) * ow + ox) * 4 * d;
        int quad = 0;
        for (std::int64_t dy = 0; dy < 2; ++dy) {
          for (std::int64_t dx = 0; dx < 2; ++dx, ++quad) {
            const std::int64_t tok = (oy * 2 + dy) * grid_w_ + ox * 2 + dx;
            std::copy_n(in.raw() + (bi * t + tok) * d, d, dst + quad * d);
          }
        }
      }
    }
  }
  const int s = first_slot();
  const SlotPlan& p = ctx.slot(s);
  const Tensor& w = p.weight_or(slot_.weight);
  if (ctx.workloads != nullptr) {
    ctx.workloads->push_back({name(), w.dim(0), w.dim(1), gathered.dim(0), s});
  }
  const Tensor* bias = slot_.bias.empty() ? nullptr : &slot_.bias;
  const ActCoding* coding = out_coding(ctx, s);
  const std::vector<std::int64_t> out_shape{b, oh * ow, w.dim(0)};
  // Coded weights + coded output: fuse GEMM→bias→encode (patch merge has
  // no nonlinearity) so the merged tokens leave only as codes.
  if (p.codes != nullptr && coding != nullptr) {
    auto enc = matmul_nt_codes_enc(gathered, *p.codes, bias,
                                   encode_spec(*coding, kernels::kActNone),
                                   ctx.approx);
    if (enc.has_value()) {
      enc->reshape(out_shape);
      count_coded(ctx, *enc);
      return NodeValue(std::move(*enc));
    }
  }
  const Tensor out = p.codes != nullptr
                         ? matmul_nt_codes(gathered, *p.codes, bias, ctx.approx)
                         : matmul_nt(gathered, w, bias);
  return finish_act(ctx, coding, p.act, out.reshaped(out_shape));
}

}  // namespace lp::nn
