package colcodec

import (
	"bytes"
	"compress/flate"
	"io"
	"sync"
)

// Pooled DEFLATE state. A flate writer or reader carries tens of KiB of
// tables and window; building one per column chunk (a segment scan
// opens one per projected column per segment) made allocation and GC a
// large share of decode time. Both directions reuse their state through
// the stdlib reset hooks, which make a reused writer or reader exactly
// equivalent to a new one, so the bytes produced and accepted do not
// change.

// deflaters holds one pool per valid flate level (HuffmanOnly = -2 up
// to BestCompression = 9): Reset keeps the writer's level.
var deflaters [flate.BestCompression - flate.HuffmanOnly + 1]sync.Pool

// getDeflater returns a DEFLATE writer at level writing to w. An
// invalid level gets flate.NewWriter's error.
func getDeflater(w io.Writer, level int) (*flate.Writer, error) {
	if level < flate.HuffmanOnly || level > flate.BestCompression {
		return flate.NewWriter(w, level)
	}
	if fw, ok := deflaters[level-flate.HuffmanOnly].Get().(*flate.Writer); ok {
		fw.Reset(w)
		return fw, nil
	}
	return flate.NewWriter(w, level)
}

// putDeflater returns a closed writer obtained at level to its pool.
func putDeflater(fw *flate.Writer, level int) {
	deflaters[level-flate.HuffmanOnly].Put(fw)
}

// maxPooledBody bounds the inflate buffer kept for reuse, so one huge
// payload does not pin its buffer in the pool.
const maxPooledBody = 16 << 20

// inflater is the pooled decompression state: a flate reader reset
// onto each compressed body and the buffer the body inflates into. The
// buffer is reused by the next decode, so no decoded cell may alias it
// — strings and bytes are copied out during column decode.
type inflater struct {
	src  bytes.Reader
	lim  io.LimitedReader
	fr   io.ReadCloser // also a flate.Resetter
	body bytes.Buffer
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

func getInflater() *inflater { return inflaters.Get().(*inflater) }

func putInflater(z *inflater) {
	if z.body.Cap() > maxPooledBody {
		z.body = bytes.Buffer{}
	}
	inflaters.Put(z)
}

// inflate decompresses comp, reading at most limit bytes of output. The
// returned slice is valid until z goes back to the pool. Reset clears
// any error a previous corrupt stream left in the reader.
func (z *inflater) inflate(comp []byte, limit int64) ([]byte, error) {
	z.src.Reset(comp)
	if z.fr == nil {
		z.fr = flate.NewReader(&z.src)
	} else if err := z.fr.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return nil, err
	}
	z.lim = io.LimitedReader{R: z.fr, N: limit}
	z.body.Reset()
	if _, err := z.body.ReadFrom(&z.lim); err != nil {
		return nil, err
	}
	return z.body.Bytes(), nil
}
