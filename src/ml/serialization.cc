#include "ml/serialization.h"

#include <cstring>
#include <fstream>

#include "common/cost_ledger.h"
#include "common/string_util.h"

namespace p2pdt {

namespace {

// Byte accounting happens at the model-level entry points only, so nested
// helpers (sparse vectors inside a one-vs-all body) are not double-counted.
void ChargeSerialized(std::size_t bytes) {
  if (CostLedger::enabled()) CostLedger::Tls().serialized_bytes += bytes;
}

void ChargeDeserialized(std::size_t bytes) {
  if (CostLedger::enabled()) CostLedger::Tls().deserialized_bytes += bytes;
}

}  // namespace

namespace wire {

void PutU8(uint8_t v, std::string& out) {
  out.push_back(static_cast<char>(v));
}

void PutU16(uint16_t v, std::string& out) {
  for (int i = 0; i < 2; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void PutU32(uint32_t v, std::string& out) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(uint64_t v, std::string& out) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void PutDouble(double v, std::string& out) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits, out);
}

#define P2PDT_NEED(n)                                                \
  do {                                                               \
    if (offset + (n) > data.size()) {                                \
      return Status::InvalidArgument("truncated model buffer");      \
    }                                                                \
  } while (0)

Result<uint8_t> GetU8(const std::string& data, std::size_t& offset) {
  P2PDT_NEED(1);
  return static_cast<uint8_t>(data[offset++]);
}

Result<uint16_t> GetU16(const std::string& data, std::size_t& offset) {
  P2PDT_NEED(2);
  uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v |= static_cast<uint16_t>(static_cast<uint8_t>(data[offset++]))
         << (8 * i);
  }
  return v;
}

Result<uint32_t> GetU32(const std::string& data, std::size_t& offset) {
  P2PDT_NEED(4);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data[offset++]))
         << (8 * i);
  }
  return v;
}

Result<uint64_t> GetU64(const std::string& data, std::size_t& offset) {
  P2PDT_NEED(8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data[offset++]))
         << (8 * i);
  }
  return v;
}

Result<double> GetDouble(const std::string& data, std::size_t& offset) {
  Result<uint64_t> bits = GetU64(data, offset);
  if (!bits.ok()) return bits.status();
  double v;
  uint64_t b = bits.value();
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

void PutBytes(const std::string& bytes, std::string& out) {
  PutU32(static_cast<uint32_t>(bytes.size()), out);
  out += bytes;
}

Result<std::string> GetBytes(const std::string& data, std::size_t& offset) {
  Result<uint32_t> len = GetU32(data, offset);
  if (!len.ok()) return len.status();
  P2PDT_NEED(len.value());
  std::string bytes = data.substr(offset, len.value());
  offset += len.value();
  return bytes;
}

#undef P2PDT_NEED

}  // namespace wire

namespace {

using namespace wire;  // NOLINT — the serializers are built from these

constexpr uint32_t kMagic = 0x50324454;  // "P2DT"
constexpr uint16_t kVersion = 1;

enum class ModelKind : uint8_t {
  kAbsent = 0,
  kLinear = 1,
  kKernel = 2,
  kConstant = 3,
  kCentroids = 4,
};

Status PutHeader(std::string& out) {
  PutU32(kMagic, out);
  PutU16(kVersion, out);
  return Status::OK();
}

Status CheckHeader(const std::string& data, std::size_t& offset) {
  Result<uint32_t> magic = GetU32(data, offset);
  if (!magic.ok()) return magic.status();
  if (magic.value() != kMagic) {
    return Status::InvalidArgument("bad model magic");
  }
  Result<uint16_t> version = GetU16(data, offset);
  if (!version.ok()) return version.status();
  if (version.value() != kVersion) {
    return Status::InvalidArgument("unsupported model version " +
                                   std::to_string(version.value()));
  }
  return Status::OK();
}

void PutKernel(const Kernel& kernel, std::string& out) {
  PutU8(static_cast<uint8_t>(kernel.type), out);
  PutDouble(kernel.gamma, out);
  PutDouble(kernel.coef0, out);
  PutU32(static_cast<uint32_t>(kernel.degree), out);
}

Result<Kernel> GetKernel(const std::string& data, std::size_t& offset) {
  Result<uint8_t> type = GetU8(data, offset);
  if (!type.ok()) return type.status();
  if (type.value() > static_cast<uint8_t>(KernelType::kPolynomial)) {
    return Status::InvalidArgument("unknown kernel type");
  }
  Kernel k;
  k.type = static_cast<KernelType>(type.value());
  Result<double> gamma = GetDouble(data, offset);
  if (!gamma.ok()) return gamma.status();
  k.gamma = gamma.value();
  Result<double> coef0 = GetDouble(data, offset);
  if (!coef0.ok()) return coef0.status();
  k.coef0 = coef0.value();
  Result<uint32_t> degree = GetU32(data, offset);
  if (!degree.ok()) return degree.status();
  k.degree = static_cast<int>(degree.value());
  return k;
}

// Body-only serializers (no header), used for nesting inside OneVsAll.
void PutLinearBody(const LinearSvmModel& model, std::string& out) {
  SerializeSparseVector(model.weights(), out);
  PutDouble(model.bias(), out);
}

Result<LinearSvmModel> GetLinearBody(const std::string& data,
                                     std::size_t& offset) {
  Result<SparseVector> w = DeserializeSparseVector(data, offset);
  if (!w.ok()) return w.status();
  Result<double> bias = GetDouble(data, offset);
  if (!bias.ok()) return bias.status();
  return LinearSvmModel(std::move(w).value(), bias.value());
}

void PutKernelBody(const KernelSvmModel& model, std::string& out) {
  PutKernel(model.kernel(), out);
  PutDouble(model.bias(), out);
  PutU32(static_cast<uint32_t>(model.support_vectors().size()), out);
  for (const SupportVector& sv : model.support_vectors()) {
    SerializeSparseVector(sv.x, out);
    PutDouble(sv.y, out);
    PutDouble(sv.alpha, out);
  }
}

Result<KernelSvmModel> GetKernelBody(const std::string& data,
                                     std::size_t& offset) {
  Result<Kernel> kernel = GetKernel(data, offset);
  if (!kernel.ok()) return kernel.status();
  Result<double> bias = GetDouble(data, offset);
  if (!bias.ok()) return bias.status();
  Result<uint32_t> count = GetU32(data, offset);
  if (!count.ok()) return count.status();
  // Each support vector occupies at least 20 bytes (nnz header + y + alpha);
  // a count beyond that bound is a hostile or corrupt length field — reject
  // before reserving attacker-controlled memory.
  if (static_cast<std::size_t>(count.value()) > (data.size() - offset) / 20) {
    return Status::DataLoss("support-vector count exceeds buffer");
  }
  std::vector<SupportVector> svs;
  svs.reserve(count.value());
  for (uint32_t i = 0; i < count.value(); ++i) {
    SupportVector sv;
    Result<SparseVector> x = DeserializeSparseVector(data, offset);
    if (!x.ok()) return x.status();
    sv.x = std::move(x).value();
    Result<double> y = GetDouble(data, offset);
    if (!y.ok()) return y.status();
    sv.y = y.value();
    Result<double> alpha = GetDouble(data, offset);
    if (!alpha.ok()) return alpha.status();
    sv.alpha = alpha.value();
    svs.push_back(std::move(sv));
  }
  return KernelSvmModel(kernel.value(), std::move(svs), bias.value());
}

}  // namespace

void SerializeSparseVector(const SparseVector& v, std::string& out) {
  PutU32(static_cast<uint32_t>(v.nnz()), out);
  for (const auto& [id, w] : v.entries()) {
    PutU32(id, out);
    PutDouble(w, out);
  }
}

Result<SparseVector> DeserializeSparseVector(const std::string& data,
                                             std::size_t& offset) {
  Result<uint32_t> nnz = GetU32(data, offset);
  if (!nnz.ok()) return nnz.status();
  // A claimed entry count beyond the remaining bytes is malformed.
  if (static_cast<std::size_t>(nnz.value()) * 12 > data.size() - offset) {
    return Status::InvalidArgument("sparse vector length exceeds buffer");
  }
  std::vector<SparseVector::Entry> entries;
  entries.reserve(nnz.value());
  for (uint32_t i = 0; i < nnz.value(); ++i) {
    Result<uint32_t> id = GetU32(data, offset);
    if (!id.ok()) return id.status();
    Result<double> w = GetDouble(data, offset);
    if (!w.ok()) return w.status();
    entries.emplace_back(id.value(), w.value());
  }
  return SparseVector::FromPairs(std::move(entries));
}

std::string SerializeLinearSvm(const LinearSvmModel& model) {
  std::string out;
  PutHeader(out);
  PutU8(static_cast<uint8_t>(ModelKind::kLinear), out);
  PutLinearBody(model, out);
  ChargeSerialized(out.size());
  return out;
}

Result<LinearSvmModel> DeserializeLinearSvm(const std::string& data) {
  ChargeDeserialized(data.size());
  std::size_t offset = 0;
  P2PDT_RETURN_IF_ERROR(CheckHeader(data, offset));
  Result<uint8_t> kind = GetU8(data, offset);
  if (!kind.ok()) return kind.status();
  if (kind.value() != static_cast<uint8_t>(ModelKind::kLinear)) {
    return Status::InvalidArgument("buffer does not hold a linear model");
  }
  return GetLinearBody(data, offset);
}

std::string SerializeKernelSvm(const KernelSvmModel& model) {
  std::string out;
  PutHeader(out);
  PutU8(static_cast<uint8_t>(ModelKind::kKernel), out);
  PutKernelBody(model, out);
  ChargeSerialized(out.size());
  return out;
}

Result<KernelSvmModel> DeserializeKernelSvm(const std::string& data) {
  ChargeDeserialized(data.size());
  std::size_t offset = 0;
  P2PDT_RETURN_IF_ERROR(CheckHeader(data, offset));
  Result<uint8_t> kind = GetU8(data, offset);
  if (!kind.ok()) return kind.status();
  if (kind.value() != static_cast<uint8_t>(ModelKind::kKernel)) {
    return Status::InvalidArgument("buffer does not hold a kernel model");
  }
  return GetKernelBody(data, offset);
}

std::string SerializeOneVsAll(const OneVsAllModel& model) {
  std::string out;
  PutHeader(out);
  PutU32(model.num_tags(), out);
  for (TagId t = 0; t < model.num_tags(); ++t) {
    const BinaryClassifier* m = model.model(t);
    if (m == nullptr) {
      PutU8(static_cast<uint8_t>(ModelKind::kAbsent), out);
    } else if (auto* linear = dynamic_cast<const LinearSvmModel*>(m)) {
      PutU8(static_cast<uint8_t>(ModelKind::kLinear), out);
      PutLinearBody(*linear, out);
    } else if (auto* kernel = dynamic_cast<const KernelSvmModel*>(m)) {
      PutU8(static_cast<uint8_t>(ModelKind::kKernel), out);
      PutKernelBody(*kernel, out);
    } else if (auto* constant = dynamic_cast<const ConstantClassifier*>(m)) {
      PutU8(static_cast<uint8_t>(ModelKind::kConstant), out);
      PutDouble(constant->value(), out);
    } else {
      // Unknown classifier implementation: preserve its behaviour at the
      // decision level as a constant of its zero-vector decision. Lossy,
      // but never silently dropped.
      PutU8(static_cast<uint8_t>(ModelKind::kConstant), out);
      PutDouble(m->Decision(SparseVector()), out);
    }
  }
  ChargeSerialized(out.size());
  return out;
}

Result<OneVsAllModel> DeserializeOneVsAll(const std::string& data) {
  ChargeDeserialized(data.size());
  std::size_t offset = 0;
  P2PDT_RETURN_IF_ERROR(CheckHeader(data, offset));
  Result<uint32_t> num_tags = GetU32(data, offset);
  if (!num_tags.ok()) return num_tags.status();
  // At least one kind byte per tag; larger counts cannot be satisfied.
  if (static_cast<std::size_t>(num_tags.value()) > data.size() - offset) {
    return Status::DataLoss("per-tag model count exceeds buffer");
  }
  OneVsAllModel model;
  for (uint32_t t = 0; t < num_tags.value(); ++t) {
    Result<uint8_t> kind = GetU8(data, offset);
    if (!kind.ok()) return kind.status();
    switch (static_cast<ModelKind>(kind.value())) {
      case ModelKind::kAbsent:
        model.SetModel(t, nullptr);
        break;
      case ModelKind::kLinear: {
        Result<LinearSvmModel> m = GetLinearBody(data, offset);
        if (!m.ok()) return m.status();
        model.SetModel(t,
                       std::make_unique<LinearSvmModel>(std::move(m).value()));
        break;
      }
      case ModelKind::kKernel: {
        Result<KernelSvmModel> m = GetKernelBody(data, offset);
        if (!m.ok()) return m.status();
        model.SetModel(t,
                       std::make_unique<KernelSvmModel>(std::move(m).value()));
        break;
      }
      case ModelKind::kConstant: {
        Result<double> v = GetDouble(data, offset);
        if (!v.ok()) return v.status();
        model.SetModel(t, std::make_unique<ConstantClassifier>(v.value()));
        break;
      }
      default:
        return Status::InvalidArgument("unknown per-tag model kind " +
                                       std::to_string(kind.value()));
    }
  }
  if (offset != data.size()) {
    return Status::InvalidArgument("trailing bytes after model");
  }
  return model;
}

std::string SerializeCentroids(const std::vector<SparseVector>& centroids) {
  std::string out;
  PutHeader(out);
  PutU8(static_cast<uint8_t>(ModelKind::kCentroids), out);
  PutU32(static_cast<uint32_t>(centroids.size()), out);
  for (const SparseVector& c : centroids) SerializeSparseVector(c, out);
  ChargeSerialized(out.size());
  return out;
}

Result<std::vector<SparseVector>> DeserializeCentroids(
    const std::string& data) {
  ChargeDeserialized(data.size());
  std::size_t offset = 0;
  P2PDT_RETURN_IF_ERROR(CheckHeader(data, offset));
  Result<uint8_t> kind = GetU8(data, offset);
  if (!kind.ok()) return kind.status();
  if (kind.value() != static_cast<uint8_t>(ModelKind::kCentroids)) {
    return Status::InvalidArgument("buffer does not hold centroids");
  }
  Result<uint32_t> count = GetU32(data, offset);
  if (!count.ok()) return count.status();
  // Each centroid carries at least its 4-byte nnz header.
  if (static_cast<std::size_t>(count.value()) > (data.size() - offset) / 4) {
    return Status::DataLoss("centroid count exceeds buffer");
  }
  std::vector<SparseVector> centroids;
  centroids.reserve(count.value());
  for (uint32_t i = 0; i < count.value(); ++i) {
    Result<SparseVector> c = DeserializeSparseVector(data, offset);
    if (!c.ok()) return c.status();
    centroids.push_back(std::move(c).value());
  }
  if (offset != data.size()) {
    return Status::InvalidArgument("trailing bytes after centroids");
  }
  return centroids;
}

Status SaveOneVsAll(const OneVsAllModel& model, const std::string& path) {
  return WriteStringToFile(path, SerializeOneVsAll(model));
}

Result<OneVsAllModel> LoadOneVsAll(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::NotFound("cannot open " + path);
  std::string data((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  return DeserializeOneVsAll(data);
}

}  // namespace p2pdt
