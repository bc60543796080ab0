package main

import (
	"math"
	"math/bits"
	"unsafe"
)

// The benchmark draws its own inputs instead of using the engine's
// generators, so a change to the program cannot change what it is measured
// on. Everything here is a pure function of the seed.

// rng is splitmix64.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix(r.s)
}

// below returns a uniform value in [0, n).
func (r *rng) below(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// unit returns a uniform float64 in [0, 1).
func (r *rng) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

// mix is the splitmix64 finalizer; the benchmark uses it for checksums and
// as the inline hash floor of the host calibration.
func mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keyGen draws keys over the domain [0, domain): uniform, or Zipf ranks
// 1..domain-1 with exponent s by continuous power-law inversion.
type keyGen struct {
	domain uint64
	s      float64 // 0 selects uniform
	t, inv float64
}

func newKeyGen(domain int, s float64) keyGen {
	g := keyGen{domain: uint64(domain), s: s}
	if s > 0 {
		g.t = math.Pow(float64(domain), 1-s) - 1
		g.inv = 1 / (1 - s)
	}
	return g
}

func (g keyGen) draw(r *rng) uint64 {
	if g.s == 0 {
		return r.below(g.domain)
	}
	k := uint64(math.Pow(1+r.unit()*g.t, g.inv))
	return min(max(k, 1), g.domain-1)
}

// rec64 is the 16-byte record of the u64 workloads. V is the record's
// position in its relation, so every output record names its source.
type rec64 struct{ K, V uint64 }

// row64 is one joined row: the key and the positions of both sides.
type row64 struct{ K, L, R uint64 }

func key64(r rec64) uint64      { return r.K }
func eq64(a, b uint64) bool     { return a == b }
func join64(a, b rec64) row64   { return row64{K: a.K, L: a.V, R: b.V} }
func joinStr(a, b recStr) row64 { return row64{L: a.V, R: b.V} }

// genU64 draws n records with keys from g.
func genU64(n int, g keyGen, seed uint64) []rec64 {
	r := rng{seed}
	out := make([]rec64, n)
	for i := range out {
		out[i] = rec64{K: g.draw(&r), V: uint64(i)}
	}
	return out
}

// dimKeys returns the m distinct keys of a dimension side, 8j+1 for j < m,
// in a seeded order. The key set is fixed so the join's output size, which
// depends on whether the Zipf head is a dimension key, is the same for
// every seed.
func dimKeys(m int, seed uint64) []uint64 {
	keys := make([]uint64, m)
	for j := range keys {
		keys[j] = 8*uint64(j) + 1
	}
	r := rng{seed ^ 0xd1ce}
	for i := m - 1; i > 0; i-- {
		j := r.below(uint64(i + 1))
		keys[i], keys[j] = keys[j], keys[i]
	}
	return keys
}

func genDim64(m int, seed uint64) []rec64 {
	out := make([]rec64, m)
	for j, k := range dimKeys(m, seed) {
		out[j] = rec64{K: k, V: uint64(j)}
	}
	return out
}

// String keys are URL-shaped: a 12-byte shared prefix, the key's identity in
// 4 base-64 characters, and 0-24 further bytes fixed by the identity, so
// keys are 16-40 bytes long, equal identities render equal bytes, and the
// identity can be read back from any key.
const (
	strPrefix = "https://www."
	idAlpha   = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
)

// recStr is the record of the string workload: a key and its position.
type recStr struct {
	K string
	V uint64
}

func keyStr(r recStr) string { return r.K }

func appendKeyBytes(dst []byte, id uint64) []byte {
	dst = append(dst, strPrefix...)
	for s := 18; s >= 0; s -= 6 {
		dst = append(dst, idAlpha[(id>>s)&63])
	}
	r := rng{id * 0x2545f4914f6cdd1d}
	for tail := r.below(25); tail > 0; tail-- {
		dst = append(dst, byte('a'+r.below(26)))
	}
	return dst
}

var idValue = func() (v [256]int8) {
	for i := range v {
		v[i] = -1
	}
	for i := 0; i < len(idAlpha); i++ {
		v[idAlpha[i]] = int8(i)
	}
	return v
}()

// strID reads a key's identity back; ok is false for a string that is not
// the rendering of any identity.
func strID(s string, scratch []byte) (id uint64, ok bool) {
	p := len(strPrefix)
	if len(s) < p+4 || s[:p] != strPrefix {
		return 0, false
	}
	for i := p; i < p+4; i++ {
		d := idValue[s[i]]
		if d < 0 {
			return 0, false
		}
		id = id<<6 | uint64(d)
	}
	return id, string(appendKeyBytes(scratch[:0], id)) == s
}

// renderStr renders each identity into one shared byte arena, one copy per
// record, so keys cost no per-string allocation.
func renderStr(ids []uint64) []recStr {
	buf := make([]byte, 0, len(ids)*(len(strPrefix)+4+24))
	offs := make([]int, len(ids)+1)
	for i, id := range ids {
		buf = appendKeyBytes(buf, id)
		offs[i+1] = len(buf)
	}
	out := make([]recStr, len(ids))
	for i := range ids {
		out[i] = recStr{K: unsafe.String(&buf[offs[i]], offs[i+1]-offs[i]), V: uint64(i)}
	}
	return out
}
