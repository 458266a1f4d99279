// Package gen holds the benchmark-owned, seeded input generators: key
// streams (scrambled Zipfian, uniform), the read/write op mix, the Poisson
// due-time schedule of the open loop and the TPC-C lead-in count. The engine
// and the server receive nothing but what these produce, and the same seed
// always produces the same stream, byte for byte.
package gen

import (
	"encoding/binary"
	"math"
	"strconv"
	"time"
)

// Rand is a splitmix64-seeded xorshift64* generator. One per stream; not
// safe for concurrent use.
type Rand struct{ s uint64 }

// NewRand derives an independent generator for (seed, stream): streams of
// one seed (worker 0, worker 1, schedule, ...) never share a sequence.
func NewRand(seed, stream uint64) *Rand {
	x := splitmix(splitmix(seed) ^ splitmix(stream+0x632BE59BD9B4E019))
	if x == 0 {
		x = 0x9E3779B97F4A7C15
	}
	return &Rand{s: x}
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 2685821657736338717
}

// Intn returns a value in [0, n).
func (r *Rand) Intn(n uint64) uint64 { return r.Uint64() % n }

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(uint64(1)<<53)
}

// Zipf draws scrambled-Zipfian keys in [0, n): ranks follow Zipf(theta)
// (Gray et al.'s rejection-free method, as in YCSB) and a fixed hash spreads
// the hot ranks over the key space.
type Zipf struct {
	n                 uint64
	theta, alpha, eta float64
	zetan, half       float64
	r                 *Rand
}

// NewZipf prepares a generator over [0, n); O(n) once for the zeta sum.
func NewZipf(n uint64, theta float64, r *Rand) *Zipf {
	zetan := 0.0
	for i := uint64(1); i <= n; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	return &Zipf{
		n: n, theta: theta, r: r, zetan: zetan,
		alpha: 1 / (1 - theta),
		eta:   (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan),
		half:  zeta2,
	}
}

// Next returns the next key.
func (z *Zipf) Next() uint64 {
	u := z.r.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < z.half:
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	return scramble(rank) % z.n
}

func scramble(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	return v ^ v>>33
}

// KVOp is one key-value operation of a generated stream.
type KVOp struct {
	Key   uint64
	Write bool
	// Val is the delta of a served add (1..9); unused by YCSB.
	Val int64
}

// KVStream yields the op stream of one worker or connection.
type KVStream struct {
	mix      *Rand
	zipf     *Zipf // nil: uniform keys
	keys     uint64
	writePct uint64
}

// NewYCSBA is worker w's YCSB-A stream: scrambled Zipfian(0.99) keys over
// [0, records), half reads and half full-payload updates.
func NewYCSBA(seed uint64, w int, records uint64) *KVStream {
	return &KVStream{
		mix:      NewRand(seed, uint64(2*w)),
		zipf:     NewZipf(records, 0.99, NewRand(seed, uint64(2*w+1))),
		keys:     records,
		writePct: 50,
	}
}

// NewServe is connection c's serving stream: uniform keys over [0, keys),
// writePct percent one-add requests, the rest one-get requests.
func NewServe(seed uint64, c int, keys uint64, writePct int) *KVStream {
	return &KVStream{mix: NewRand(seed, 100+uint64(c)), keys: keys, writePct: uint64(writePct)}
}

// Clone returns an independent stream that continues from s's current
// position, so that two passes can replay the same ops.
func (s *KVStream) Clone() *KVStream {
	c := *s
	mix := *s.mix
	c.mix = &mix
	if s.zipf != nil {
		z, r := *s.zipf, *s.zipf.r
		z.r = &r
		c.zipf = &z
	}
	return &c
}

// Next returns the stream's next op.
func (s *KVStream) Next() KVOp {
	x := s.mix.Uint64()
	op := KVOp{Write: x%100 < s.writePct, Val: int64(x>>32%9) + 1}
	if s.zipf != nil {
		op.Key = s.zipf.Next()
	} else {
		op.Key = s.mix.Intn(s.keys)
	}
	return op
}

// AppendOps draws n ops and appends their fixed-width encoding to dst: the
// byte form the reproducibility tests compare.
func (s *KVStream) AppendOps(dst []byte, n int) []byte {
	for i := 0; i < n; i++ {
		op := s.Next()
		dst = binary.LittleEndian.AppendUint64(dst, op.Key)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(op.Val))
		if op.Write {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// AppendBody appends the JSON body of the one-op request for op against the
// served table: an add of op.Val for a write, a get otherwise.
func AppendBody(dst []byte, table string, op KVOp) []byte {
	dst = append(dst, `{"ops":[{"op":"`...)
	if op.Write {
		dst = append(dst, "add"...)
	} else {
		dst = append(dst, "get"...)
	}
	dst = append(dst, `","table":"`...)
	dst = append(dst, table...)
	dst = append(dst, `","key":`...)
	dst = strconv.AppendUint(dst, op.Key, 10)
	if op.Write {
		dst = append(dst, `,"val":`...)
		dst = strconv.AppendInt(dst, op.Val, 10)
	}
	return append(dst, "}]}"...)
}

// Poisson yields the due times of a Poisson arrival process of a fixed rate,
// as offsets from the start of the run.
type Poisson struct {
	r    *Rand
	mean float64 // mean gap in nanoseconds
	at   float64
}

// NewPoisson is connection c's share of the schedule at ratePerSec.
func NewPoisson(seed uint64, c int, ratePerSec float64) *Poisson {
	return &Poisson{r: NewRand(seed, 200+uint64(c)), mean: 1e9 / ratePerSec}
}

// Next returns the next due time.
func (p *Poisson) Next() time.Duration {
	p.at += -math.Log(1-p.r.Float64()) * p.mean
	return time.Duration(p.at)
}

// TPCCLeadInMax bounds TPCCLeadIn.
const TPCCLeadInMax = 100

// TPCCLeadIn is the number of discarded lead-in transactions worker w runs
// before warm-up, in [0, TPCCLeadInMax). The TPC-C driver's RNG seeds are
// fixed inside the repository, so the seed can only choose where in that
// fixed sequence the measured run starts. The lead-in is part of the set-up,
// whose time is reported: a hundred calls are a twentieth of it, a thousand
// would be half and setup_s would follow the seed.
func TPCCLeadIn(seed uint64, w int) int {
	return int(NewRand(seed, 300+uint64(w)).Intn(TPCCLeadInMax))
}
