#ifndef XFRAUD_NN_SERIALIZE_H_
#define XFRAUD_NN_SERIALIZE_H_

#include <string>
#include <vector>

#include "xfraud/common/bytes.h"
#include "xfraud/common/status.h"
#include "xfraud/nn/modules.h"
#include "xfraud/nn/tensor.h"

namespace xfraud::nn {

/// The tensor codec shared by every parameter file — this one ("XFCK"), the
/// trainer checkpoint ("XFTC") and the DDP worker checkpoint ("XFDC"):
/// {i64 rows, i64 cols, rows × cols f32}. Parameter names travel as
/// ByteWriter::Str / ByteReader::Str (u32 length, then the bytes).
void EncodeTensor(const Tensor& t, ByteWriter* out);

/// Reads a tensor written by EncodeTensor. Returns false on a truncated
/// payload or on a shape that is negative or claims more floats than the
/// bytes left — checked before anything is allocated.
bool DecodeTensor(ByteReader* in, Tensor* t);

/// Writes named parameters to a simple binary checkpoint:
///   magic "XFCK", u32 count, then per entry
///   {u32 name_len, name bytes, i64 rows, i64 cols, float payload}.
Status SaveParameters(const std::vector<NamedParameter>& params,
                      const std::string& path);

/// Loads a checkpoint into `params`, matching entries by name. Every
/// parameter must be present with identical shape.
Status LoadParameters(const std::string& path,
                      std::vector<NamedParameter>* params);

/// Copies parameter values from `src` into `dst`, matching by position.
/// Shapes must agree. Used to replicate models across DDP workers.
Status CopyParameters(const std::vector<NamedParameter>& src,
                      std::vector<NamedParameter>* dst);

}  // namespace xfraud::nn

#endif  // XFRAUD_NN_SERIALIZE_H_
