#include "xfraud/common/frame.h"

#include <string>

#include "xfraud/common/bytes.h"
#include "xfraud/common/crc32.h"

namespace xfraud {

namespace {

constexpr char kMagic[4] = {'X', 'F', 'R', 'M'};

}  // namespace

uint32_t FramePayloadCrc(const void* payload, size_t n) {
  return Crc32(n > 0 ? payload : "", n);
}

void SealFramePayload(FrameHeader* header, const void* payload, size_t n) {
  header->payload_bytes = n;
  header->payload_crc = FramePayloadCrc(payload, n);
}

Status VerifyFramePayload(const FrameHeader& header, const void* payload,
                          size_t n) {
  if (header.payload_bytes != n) {
    return Status::Corruption(
        "frame: payload length mismatch: header says " +
        std::to_string(header.payload_bytes) + " bytes, got " +
        std::to_string(n));
  }
  const uint32_t crc = FramePayloadCrc(payload, n);
  if (crc != header.payload_crc) {
    return Status::Corruption("frame: payload CRC mismatch (type " +
                              std::to_string(static_cast<int>(header.type)) +
                              ", seq " + std::to_string(header.seq) + ")");
  }
  return Status::OK();
}

std::string EncodeFrameHeader(const FrameHeader& header) {
  return ByteWriter()
      .Magic(kMagic)
      .U16(static_cast<uint16_t>(header.type))
      .U16(header.flags)
      .U32(header.rank)
      .U64(header.seq)
      .U64(header.payload_bytes)
      .U32(header.payload_crc)
      .Release();
}

Result<FrameHeader> DecodeFrameHeader(const unsigned char* data) {
  ByteReader in(data, kFrameHeaderBytes);
  if (!in.Magic(kMagic)) return Status::Corruption("frame: bad magic");
  FrameHeader header;
  const uint16_t type = in.U16();
  // Type 7, the retired ring barrier token, stays unassigned.
  if (type < static_cast<uint16_t>(FrameType::kHello) ||
      type > static_cast<uint16_t>(FrameType::kDrain) || type == 7) {
    return Status::Corruption("frame: unknown type " + std::to_string(type));
  }
  header.type = static_cast<FrameType>(type);
  header.flags = in.U16();
  header.rank = in.U32();
  header.seq = in.U64();
  header.payload_bytes = in.U64();
  header.payload_crc = in.U32();
  if (header.payload_bytes > kMaxFramePayload) {
    return Status::Corruption("frame: payload length " +
                              std::to_string(header.payload_bytes) +
                              " exceeds limit");
  }
  return header;
}

}  // namespace xfraud
