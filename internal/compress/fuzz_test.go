package compress

import (
	"bytes"
	"encoding/binary"
	"testing"

	"fedtrans/internal/tensor"
)

// FuzzUnmarshalQuantized hardens the quantized-tensor parser: no input
// may panic or drive absurd allocations, and any blob that parses must
// re-marshal byte-identically and dequantize without panicking.
func FuzzUnmarshalQuantized(f *testing.F) {
	// Seed corpus from valid marshalings.
	for _, shape := range [][]int{{1}, {3, 4}, {2, 2, 2}} {
		t := tensor.New(shape...)
		for i := range t.Data {
			t.Data[i] = tensor.Float(i%7) - 3
		}
		f.Add(Quantize(t).Marshal())
	}
	// A truncated header and a hostile dim.
	valid := Quantize(tensor.FromSlice([]tensor.Float{1, 2, 3, 4}, 2, 2)).Marshal()
	f.Add(valid[:5])
	hostile := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(hostile[4:], 1<<30)
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, blob []byte) {
		q, err := UnmarshalQuantized(blob)
		if err != nil {
			return
		}
		if !bytes.Equal(q.Marshal(), blob) {
			t.Fatal("unmarshal/marshal not canonical")
		}
		d := q.Dequantize()
		if d.Len() != len(q.Codes) {
			t.Fatalf("dequantized %d elems from %d codes", d.Len(), len(q.Codes))
		}
	})
}
