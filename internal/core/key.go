package core

import (
	"encoding/binary"
	"math"
	"strconv"
	"strings"
)

// CacheKey returns a canonical string identifying the solver configuration
// for result caching: two Options values that produce identical solver
// behavior map to the same key, regardless of whether defaults were spelled
// out or left zero. Workers is intentionally excluded — it changes
// wall-clock time, never the fixpoint. Float32 is
// included: it changes the scores beyond Tol-level noise.
//
// The teleport vector is folded in as an FNV-1a digest of its normalized
// entries, so personalized configurations get distinct keys without embedding
// n floats in the key string.
func (o Options) CacheKey() string {
	if o.Alpha == 0 {
		o.Alpha = DefaultAlpha
	}
	if o.Tol == 0 {
		o.Tol = DefaultTol
	}
	if o.MaxIter == 0 {
		o.MaxIter = DefaultMaxIter
	}
	if o.Float32 && o.Tol < Float32MinTol {
		o.Tol = Float32MinTol // mirror the solver's clamp so keys canonicalize
	}
	// strconv's shortest 'g' form is fmt's %g, byte for byte.
	var b strings.Builder
	var num [32]byte
	b.Grow(64)
	b.WriteString("alpha=")
	b.Write(strconv.AppendFloat(num[:0], o.Alpha, 'g', -1, 64))
	b.WriteString("|tol=")
	b.Write(strconv.AppendFloat(num[:0], o.Tol, 'g', -1, 64))
	b.WriteString("|maxiter=")
	b.Write(strconv.AppendInt(num[:0], int64(o.MaxIter), 10))
	if o.Float32 {
		b.WriteString("|f32")
	}
	if o.Teleport != nil {
		b.WriteString("|tele=")
		hex := strconv.AppendUint(num[:0], teleportDigest(o.Teleport), 16)
		b.WriteString("0000000000000000"[len(hex):]) // zero-pad to 16 digits
		b.Write(hex)
	}
	return b.String()
}

// teleportDigest hashes the normalized teleport distribution so that scaled
// copies of the same distribution (which the solver normalizes anyway)
// collide on purpose.
func teleportDigest(t []float64) uint64 {
	var sum float64
	for _, v := range t {
		sum += v
	}
	inv := 1.0
	if sum > 0 {
		inv = 1 / sum
	}
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	var h uint64 = offset64
	var buf [8]byte
	for _, v := range t {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v*inv))
		for _, c := range buf {
			h ^= uint64(c)
			h *= prime64
		}
	}
	return h
}
