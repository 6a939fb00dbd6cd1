package engine

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"

	"ivnt/internal/relation"
)

// StageFingerprint returns a stable content hash of a stage: the input
// schema plus every operator descriptor, including broadcast-join table
// contents. Two stages with equal fingerprints compile to equivalent
// pipelines, which is what makes the fingerprint a safe cache key — on
// the local executor's pipeline cache and on remote executors, where
// the v3 wire protocol ships each stage once and addresses it by this
// value (content addressing means a cached entry can never be stale).
func StageFingerprint(in relation.Schema, ops []OpDesc) uint64 {
	h := fnv.New64a()
	hashSchema(h, in)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(ops)))
	h.Write(b[:])
	for _, op := range ops {
		hashOp(h, op)
	}
	return h.Sum64()
}

// TableFingerprint returns a stable content hash of a broadcast table
// (schema + rows). The driver keys shipped broadcast tables by it so an
// executor connection receives each distinct table at most once.
func TableFingerprint(s relation.Schema, rows []relation.Row) uint64 {
	h := fnv.New64a()
	hashSchema(h, s)
	hashRows(h, rows)
	return h.Sum64()
}

func hashSchema(h hash.Hash64, s relation.Schema) {
	hashInt(h, len(s.Cols))
	for _, c := range s.Cols {
		hashString(h, c.Name)
		h.Write([]byte{byte(c.Kind)})
	}
}

func hashOp(h hash.Hash64, op OpDesc) {
	h.Write([]byte{byte(op.Kind), byte(op.ColKind)})
	hashString(h, op.Expr)
	hashString(h, op.Col)
	hashStrings(h, op.Cols)
	// Shuffle fan-out: two exchanges over the same keys but different
	// partition counts must compile and cache as distinct stages.
	hashInt(h, op.Parts)
	hashStrings(h, op.GroupBy)
	hashInt(h, len(op.Aggs))
	for _, a := range op.Aggs {
		h.Write([]byte{byte(a.Fn)})
		hashString(h, a.Col)
		hashString(h, a.As)
	}
	if op.Join == nil {
		h.Write([]byte{0})
		return
	}
	h.Write([]byte{1})
	hashSchema(h, op.Join.Schema)
	hashStrings(h, op.Join.LeftKeys)
	hashStrings(h, op.Join.RightKeys)
	hashRows(h, op.Join.Rows)
}

func hashRows(h hash.Hash64, rows []relation.Row) {
	hashInt(h, len(rows))
	for _, r := range rows {
		hashInt(h, len(r))
		for _, v := range r {
			hashValue(h, v)
		}
	}
}

// hashValue streams a canonical byte form of one cell: kind tag plus
// exact payload bits (float64 bit pattern, not numeric value, so ±0 and
// NaN payloads distinguish).
func hashValue(h hash.Hash64, v relation.Value) {
	var b [9]byte
	b[0] = byte(v.K)
	switch v.K {
	case relation.KindNull:
		h.Write(b[:1])
	case relation.KindBool, relation.KindInt:
		binary.LittleEndian.PutUint64(b[1:], uint64(v.I))
		h.Write(b[:9])
	case relation.KindFloat:
		binary.LittleEndian.PutUint64(b[1:], math.Float64bits(v.F))
		h.Write(b[:9])
	case relation.KindString:
		h.Write(b[:1])
		hashString(h, v.S)
	case relation.KindBytes:
		h.Write(b[:1])
		hashInt(h, len(v.B))
		h.Write(v.B)
	}
}

func hashString(h hash.Hash64, s string) {
	hashInt(h, len(s))
	h.Write([]byte(s))
}

func hashStrings(h hash.Hash64, ss []string) {
	hashInt(h, len(ss))
	for _, s := range ss {
		hashString(h, s)
	}
}

func hashInt(h hash.Hash64, i int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	h.Write(b[:])
}
