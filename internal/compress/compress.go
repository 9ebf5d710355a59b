// Package compress implements lossy update compression for the FL uplink:
// linear 8-bit quantization with per-tensor scale. Real deployments use
// it to cut the network volume that Table 2 accounts for; the package
// lets the harness study the cost/accuracy trade-off of compressed
// uploads.
package compress

import (
	"encoding/binary"
	"errors"
	"math"

	"fedtrans/internal/tensor"
)

// maxDim guards against hostile or corrupted size fields, mirroring the
// bound enforced by internal/codec.
const maxDim = 1 << 24

// QuantizedTensor is an 8-bit linear quantization of a tensor:
// value ≈ Min + code × (Max−Min)/255.
type QuantizedTensor struct {
	Shape    []int
	Min, Max float64
	Codes    []uint8
}

// Quantize compresses a tensor to 8-bit codes.
func Quantize(t *tensor.Tensor) QuantizedTensor {
	var q QuantizedTensor
	QuantizeInto(&q, t)
	return q
}

// QuantizeInto quantizes t into q, reusing q's Shape and Codes storage
// when their capacity suffices — the streaming round loop quantizes
// thousands of uploads per round through a handful of recycled scratch
// records, so the uplink simulation allocates nothing in steady state.
// The result is identical to Quantize.
func QuantizeInto(q *QuantizedTensor, t *tensor.Tensor) {
	q.Shape = append(q.Shape[:0], t.Shape...)
	if cap(q.Codes) >= t.Len() {
		q.Codes = q.Codes[:t.Len()]
	} else {
		q.Codes = make([]uint8, t.Len())
	}
	q.Min, q.Max = 0, 0
	if t.Len() == 0 {
		return
	}
	min, max := t.Data[0], t.Data[0]
	for _, v := range t.Data {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	q.Min, q.Max = float64(min), float64(max)
	span := q.Max - q.Min
	if span <= 0 {
		for i := range q.Codes {
			q.Codes[i] = 0 // Dequantize yields Min everywhere
		}
		return
	}
	inv := 255.0 / span
	for i, v := range t.Data {
		c := math.Round((float64(v) - q.Min) * inv)
		if c < 0 {
			c = 0
		}
		if c > 255 {
			c = 255
		}
		q.Codes[i] = uint8(c)
	}
}

// Dequantize reconstructs the tensor.
func (q QuantizedTensor) Dequantize() *tensor.Tensor {
	t := tensor.New(q.Shape...)
	step := (q.Max - q.Min) / 255.0
	for i, c := range q.Codes {
		t.Data[i] = tensor.Float(q.Min + float64(c)*step)
	}
	return t
}

// Bytes returns the wire size of the quantized tensor (codes + two
// float64 bounds + shape framing).
func (q QuantizedTensor) Bytes() int {
	return len(q.Codes) + 16 + 4*len(q.Shape) + 4
}

// MaxError returns the worst-case reconstruction error for the
// quantization of t: half a quantization step.
func MaxError(t *tensor.Tensor) float64 {
	if t.Len() == 0 {
		return 0
	}
	min, max := t.Data[0], t.Data[0]
	for _, v := range t.Data {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return float64(max-min) / 255.0 / 2
}

// QuantizeAll compresses a full weight list and reports the compressed
// byte volume.
func QuantizeAll(ts []*tensor.Tensor) ([]QuantizedTensor, int) {
	out := make([]QuantizedTensor, len(ts))
	bytes := 0
	for i, t := range ts {
		out[i] = Quantize(t)
		bytes += out[i].Bytes()
	}
	return out, bytes
}

// DequantizeAll reconstructs a weight list.
func DequantizeAll(qs []QuantizedTensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(qs))
	for i := range qs {
		out[i] = qs[i].Dequantize()
	}
	return out
}

// Marshal serializes a quantized tensor (used by tests and tooling to
// verify wire sizes; big-endian framing matching internal/codec style).
func (q QuantizedTensor) Marshal() []byte {
	out := make([]byte, 0, q.Bytes())
	out = binary.BigEndian.AppendUint32(out, uint32(len(q.Shape)))
	for _, d := range q.Shape {
		out = binary.BigEndian.AppendUint32(out, uint32(d))
	}
	out = binary.BigEndian.AppendUint64(out, math.Float64bits(q.Min))
	out = binary.BigEndian.AppendUint64(out, math.Float64bits(q.Max))
	return append(out, q.Codes...)
}

// UnmarshalQuantized parses a blob produced by Marshal. Dimensions are
// bounds-checked (no zero or > maxDim dims, no element-count overflow)
// so corrupted or hostile size fields are rejected instead of driving
// huge allocations or mismatched reconstructions.
func UnmarshalQuantized(b []byte) (QuantizedTensor, error) {
	var q QuantizedTensor
	if err := UnmarshalQuantizedInto(&q, b); err != nil {
		return QuantizedTensor{}, err
	}
	return q, nil
}

// UnmarshalQuantizedInto parses a blob produced by Marshal into q,
// reusing q's Shape and Codes storage when their capacity suffices —
// the receiving coordinator funnels every agent's quantized uplink
// through a handful of recycled records, so decoding allocates nothing
// in steady state. Validation is identical to UnmarshalQuantized; on
// error q's contents are unspecified.
func UnmarshalQuantizedInto(q *QuantizedTensor, b []byte) error {
	if len(b) < 4 {
		return errors.New("compress: truncated header")
	}
	rank := binary.BigEndian.Uint32(b)
	off := 4
	if rank > 8 || len(b) < off+int(rank)*4+16 {
		return errors.New("compress: truncated shape")
	}
	q.Shape = q.Shape[:0]
	elems := 1
	for i := uint32(0); i < rank; i++ {
		d := int(binary.BigEndian.Uint32(b[off:]))
		if d == 0 || d > maxDim {
			return errors.New("compress: unreasonable dim")
		}
		q.Shape = append(q.Shape, d)
		elems *= d
		if elems > maxDim {
			return errors.New("compress: unreasonable element count")
		}
		off += 4
	}
	q.Min = math.Float64frombits(binary.BigEndian.Uint64(b[off:]))
	off += 8
	q.Max = math.Float64frombits(binary.BigEndian.Uint64(b[off:]))
	off += 8
	if len(b)-off != elems {
		return errors.New("compress: code count mismatch")
	}
	q.Codes = append(q.Codes[:0], b[off:]...)
	return nil
}
