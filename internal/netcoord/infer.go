package netcoord

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"
)

// PredictFunc answers one batch of flat feature rows with one class per
// row. Implementations must be safe for concurrent calls: every
// inference connection is served by its own goroutine.
type PredictFunc func(rows [][]float64) ([]int, error)

// ServeInferenceTimeout accepts connections on ln and answers PREDICT
// frames through predict until the listener closes. dim is the model's
// flat feature dimension, advertised in the WELCOME frame so clients
// can validate rows before they travel. The handshake, each PREDICT
// body (once its header arrives), and each PREDICTRES write must
// complete within timeout, so one stalled client cannot pin its serving
// goroutine forever. The idle wait between requests on a healthy
// connection is never bounded. timeout 0 means DefaultIOTimeout;
// negative disables deadlines.
func ServeInferenceTimeout(ln net.Listener, dim int, predict PredictFunc, timeout time.Duration) error {
	for {
		c, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go serveInferConn(c, dim, predict, normalizeTimeout(timeout))
	}
}

func serveInferConn(c net.Conn, dim int, predict PredictFunc, timeout time.Duration) {
	defer c.Close()
	fc := newFrameConnTimeout(c, timeout)
	t, payload, err := fc.read()
	if err != nil || t != ftHello || len(payload) != 6 ||
		string(payload[:4]) != helloMagic ||
		binary.BigEndian.Uint16(payload[4:]) != ProtoVersion {
		return
	}
	welcome := make([]byte, 0, 6)
	welcome = binary.BigEndian.AppendUint16(welcome, ProtoVersion)
	welcome = binary.BigEndian.AppendUint32(welcome, uint32(dim))
	if fc.write(ftWelcome, welcome) != nil {
		return
	}
	var rows [][]float64
	var feats []float64
	var resp []byte
	for {
		// Idle read: a quiet client keeps its connection; one that
		// starts a frame must finish it within the deadline.
		t, payload, err := fc.readIdle()
		if err != nil {
			return
		}
		if t != ftPredict || len(payload) < 8 {
			return
		}
		n := int(binary.BigEndian.Uint32(payload))
		d := int(binary.BigEndian.Uint32(payload[4:]))
		if d != dim || len(payload) != 8+n*d*4 {
			resp = appendInferErr(resp[:0], fmt.Sprintf("bad PREDICT geometry: %d×%d over %d payload bytes (model dim %d)", n, d, len(payload)-8, dim))
			if fc.write(ftPredictRes, resp) != nil {
				return
			}
			continue
		}
		// Decode rows into reusable buffers.
		if cap(feats) < n*d {
			feats = make([]float64, n*d)
		}
		feats = feats[:n*d]
		if cap(rows) < n {
			rows = make([][]float64, n)
		}
		rows = rows[:n]
		for i := 0; i < n; i++ {
			row := feats[i*d : (i+1)*d]
			for j := 0; j < d; j++ {
				bits := binary.BigEndian.Uint32(payload[8+(i*d+j)*4:])
				row[j] = float64(math.Float32frombits(bits))
			}
			rows[i] = row
		}
		classes, err := predict(rows)
		if err != nil {
			resp = appendInferErr(resp[:0], err.Error())
		} else {
			b := resp[:0]
			b = append(b, 0)
			b = binary.BigEndian.AppendUint32(b, uint32(len(classes)))
			for _, cl := range classes {
				b = binary.BigEndian.AppendUint32(b, uint32(cl))
			}
			resp = b
		}
		if fc.write(ftPredictRes, resp) != nil {
			return
		}
	}
}

func appendInferErr(b []byte, msg string) []byte {
	b = append(b, 1)
	return append(b, msg...)
}

// InferClient is a remote-inference connection: lock-stepped PREDICT /
// PREDICTRES exchanges over one FTNC connection. Not safe for
// concurrent use; open one per goroutine.
type InferClient struct {
	fc  *frameConn
	dim int
	req []byte
}

// DialInference connects to a ServeInferenceTimeout endpoint and
// completes the handshake. Frame exchanges are bounded by DefaultIOTimeout; use
// DialInferenceTimeout to pick the deadline.
func DialInference(addr string) (*InferClient, error) {
	return DialInferenceTimeout(addr, DefaultIOTimeout)
}

// DialInferenceTimeout is DialInference with an explicit frame
// deadline applied to every exchange (handshake and each PREDICT /
// PREDICTRES round trip), so a stalled server surfaces ErrIOTimeout
// instead of blocking the caller forever. timeout 0 means
// DefaultIOTimeout; negative disables deadlines.
func DialInferenceTimeout(addr string, timeout time.Duration) (*InferClient, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netcoord: dial inference %s: %w", addr, err)
	}
	fc := newFrameConnTimeout(c, normalizeTimeout(timeout))
	hello := make([]byte, 0, 6)
	hello = append(hello, helloMagic...)
	hello = binary.BigEndian.AppendUint16(hello, ProtoVersion)
	if err := fc.write(ftHello, hello); err != nil {
		c.Close()
		return nil, fmt.Errorf("netcoord: inference handshake: %w", err)
	}
	t, payload, err := fc.read()
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("netcoord: inference handshake: %w", err)
	}
	if t != ftWelcome || len(payload) != 6 {
		c.Close()
		return nil, fmt.Errorf("%w: expected inference WELCOME", ErrBadHandshake)
	}
	if v := binary.BigEndian.Uint16(payload); v != ProtoVersion {
		c.Close()
		return nil, fmt.Errorf("%w: server speaks FTNC/%d, client FTNC/%d", ErrBadHandshake, v, ProtoVersion)
	}
	return &InferClient{fc: fc, dim: int(binary.BigEndian.Uint32(payload[2:]))}, nil
}

// Dim is the feature dimension the server's model expects.
func (c *InferClient) Dim() int { return c.dim }

// Close shuts the connection down.
func (c *InferClient) Close() error { return c.fc.close() }

// Predict classifies one feature vector.
func (c *InferClient) Predict(features []float64) (int, error) {
	out, err := c.predict([][]float64{features})
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// PredictBatch classifies a batch of feature vectors in one exchange.
func (c *InferClient) PredictBatch(rows [][]float64) ([]int, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	return c.predict(rows)
}

func (c *InferClient) predict(rows [][]float64) ([]int, error) {
	for i, r := range rows {
		if len(r) != c.dim {
			return nil, fmt.Errorf("netcoord: row %d feature dim %d, server expects %d", i, len(r), c.dim)
		}
	}
	b := c.req[:0]
	b = binary.BigEndian.AppendUint32(b, uint32(len(rows)))
	b = binary.BigEndian.AppendUint32(b, uint32(c.dim))
	for _, r := range rows {
		for _, v := range r {
			b = binary.BigEndian.AppendUint32(b, math.Float32bits(float32(v)))
		}
	}
	c.req = b
	if err := c.fc.write(ftPredict, b); err != nil {
		return nil, fmt.Errorf("netcoord: predict: %w", err)
	}
	t, payload, err := c.fc.read()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("%w (inference server closed)", ErrAgentGone)
		}
		return nil, err
	}
	if t != ftPredictRes || len(payload) < 1 {
		return nil, fmt.Errorf("%w: expected PREDICTRES", ErrProtocol)
	}
	if payload[0] != 0 {
		return nil, fmt.Errorf("netcoord: inference server: %s", payload[1:])
	}
	if len(payload) < 5 {
		return nil, fmt.Errorf("%w: short PREDICTRES", ErrProtocol)
	}
	n := int(binary.BigEndian.Uint32(payload[1:]))
	if n != len(rows) || len(payload) != 5+4*n {
		return nil, fmt.Errorf("%w: PREDICTRES carries %d classes for %d rows", ErrProtocol, n, len(rows))
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(binary.BigEndian.Uint32(payload[5+4*i:]))
	}
	return out, nil
}
