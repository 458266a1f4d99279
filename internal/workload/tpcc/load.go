package tpcc

import (
	"fmt"
	"math/rand"

	"falcon/internal/core"
	"falcon/internal/layout"
)

// Load populates the nine tables per the spec's initial database, scaled by
// cfg. It bypasses transaction processing (bulk path, uncharged), matching
// the paper's pre-measurement table initialization.
func Load(e *core.Engine, cfg Config) error {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(20230101))
	l := &loader{e: e, cfg: cfg, rng: rng, seqs: make(map[string]int)}
	if err := l.items(); err != nil {
		return err
	}
	for w := 1; w <= cfg.Warehouses; w++ {
		if err := l.warehouse(w); err != nil {
			return err
		}
	}
	return nil
}

type loader struct {
	e    *core.Engine
	cfg  Config
	rng  *rand.Rand
	hseq uint64
	seqs map[string]int // per-table round-robin thread assignment
}

// install bulk-loads one tuple and its index entries, spreading each
// table's rows round-robin across worker slot ranges so per-thread
// allocation cursors stay balanced.
func (l *loader) install(t *core.Table, key uint64, buf []byte) error {
	thread := l.seqs[t.Name()] % l.e.Config().Threads
	l.seqs[t.Name()]++
	if err := t.Load(thread, key, buf); err != nil {
		return fmt.Errorf("tpcc: load %s key %#x: %w", t.Name(), key, err)
	}
	return nil
}

func (l *loader) fillString(s *layout.Schema, buf []byte, col, minLen, maxLen int) {
	n := minLen
	if maxLen > minLen {
		n += l.rng.Intn(maxLen - minLen + 1)
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + l.rng.Intn(26))
	}
	s.PutBytes(buf, col, b)
}

func (l *loader) items() error {
	t := l.e.Table(TItem)
	s := t.Schema()
	buf := make([]byte, s.TupleSize())
	for i := 1; i <= l.cfg.Items; i++ {
		for j := range buf {
			buf[j] = 0
		}
		s.PutUint64(buf, IID, iKey(i))
		s.PutInt64(buf, IImID, int64(l.rng.Intn(10000)+1))
		s.PutInt64(buf, IPrice, int64(l.rng.Intn(9901)+100)) // 1.00..100.00 in cents
		l.fillString(s, buf, IName, 14, 24)
		l.fillString(s, buf, IData, 26, 50)
		if err := l.install(t, iKey(i), buf); err != nil {
			return err
		}
	}
	return nil
}

func (l *loader) warehouse(w int) error {
	tw := l.e.Table(TWarehouse)
	s := tw.Schema()
	buf := make([]byte, s.TupleSize())
	s.PutUint64(buf, WID, wKey(w))
	s.PutInt64(buf, WTax, int64(l.rng.Intn(2001))) // 0..20.00% in bp
	s.PutInt64(buf, WYtd, 30000000)                // 300,000.00
	l.fillString(s, buf, WName, 6, 10)
	if err := l.install(tw, wKey(w), buf); err != nil {
		return err
	}

	if err := l.stock(w); err != nil {
		return err
	}
	for d := 1; d <= Districts; d++ {
		if err := l.district(w, d); err != nil {
			return err
		}
	}
	return nil
}

func (l *loader) stock(w int) error {
	t := l.e.Table(TStock)
	s := t.Schema()
	buf := make([]byte, s.TupleSize())
	for i := 1; i <= l.cfg.Items; i++ {
		for j := range buf {
			buf[j] = 0
		}
		s.PutUint64(buf, SKey, sKey(w, i))
		s.PutInt64(buf, SQuantity, int64(l.rng.Intn(91)+10))
		l.fillString(s, buf, SDist, 240, 240)
		l.fillString(s, buf, SData, 26, 50)
		if err := l.install(t, sKey(w, i), buf); err != nil {
			return err
		}
	}
	return nil
}

func (l *loader) district(w, d int) error {
	t := l.e.Table(TDistrict)
	s := t.Schema()
	buf := make([]byte, s.TupleSize())
	s.PutUint64(buf, DKey, dKey(w, d))
	s.PutInt64(buf, DTax, int64(l.rng.Intn(2001)))
	s.PutInt64(buf, DYtd, 3000000)
	s.PutInt64(buf, DNextOID, int64(l.cfg.OrdersPerDistrict)+1)
	l.fillString(s, buf, DName, 6, 10)
	if err := l.install(t, dKey(w, d), buf); err != nil {
		return err
	}

	if err := l.customers(w, d); err != nil {
		return err
	}
	return l.orders(w, d)
}

func (l *loader) customers(w, d int) error {
	t := l.e.Table(TCustomer)
	s := t.Schema()
	buf := make([]byte, s.TupleSize())
	nameBuf := make([]byte, 0, 18)
	for c := 1; c <= l.cfg.CustomersPerDistrict; c++ {
		for j := range buf {
			buf[j] = 0
		}
		// Spec: first 1000 customers get sequential names, rest NURand.
		nameNum := c - 1
		if nameNum >= 1000 {
			nameNum = nuRand(l.rng, 255, 0, 999)
		}
		name := lastName(nameNum, nameBuf)
		s.PutUint64(buf, CKey, cKey(w, d, c))
		s.PutUint64(buf, CSecKey, cSecKey(w, d, name, c))
		s.PutInt64(buf, CBalance, -1000) // -10.00
		s.PutInt64(buf, CYtdPayment, 1000)
		s.PutInt64(buf, CPaymentCnt, 1)
		s.PutInt64(buf, CDiscount, int64(l.rng.Intn(5001))) // 0..50.00% bp
		s.PutInt64(buf, CCreditLim, 5000000)
		s.PutBytes(buf, CLast, name)
		l.fillString(s, buf, CFirst, 8, 16)
		s.PutString(buf, CMiddle, "OE")
		if l.rng.Intn(10) == 0 {
			s.PutString(buf, 18, "BC") // c_credit
		} else {
			s.PutString(buf, 18, "GC")
		}
		l.fillString(s, buf, 19, 100, 250) // c_data
		if err := l.install(t, cKey(w, d, c), buf); err != nil {
			return err
		}

		// One history row per customer.
		th := l.e.Table(THistory)
		hs := th.Schema()
		hbuf := make([]byte, hs.TupleSize())
		l.hseq++
		hs.PutUint64(hbuf, HKey, l.hseq)
		hs.PutUint64(hbuf, HCKey, cKey(w, d, c))
		hs.PutUint64(hbuf, HDKey, dKey(w, d))
		hs.PutInt64(hbuf, HAmount, 1000)
		if err := l.install(th, l.hseq, hbuf); err != nil {
			return err
		}
	}
	return nil
}

func (l *loader) orders(w, d int) error {
	to := l.e.Table(TOrder)
	tol := l.e.Table(TOrderLine)
	tno := l.e.Table(TNewOrder)
	os, ols, nos := to.Schema(), tol.Schema(), tno.Schema()
	obuf := make([]byte, os.TupleSize())
	olbuf := make([]byte, ols.TupleSize())
	nobuf := make([]byte, nos.TupleSize())

	// Orders 1..N with customers in a random permutation (spec).
	perm := l.rng.Perm(l.cfg.CustomersPerDistrict)
	for o := 1; o <= l.cfg.OrdersPerDistrict; o++ {
		c := perm[(o-1)%len(perm)] + 1
		olCnt := l.rng.Intn(11) + 5 // 5..15
		for j := range obuf {
			obuf[j] = 0
		}
		os.PutUint64(obuf, OKey, oKey(w, d, o))
		os.PutUint64(obuf, OSecKey, oSecKey(w, d, c, o))
		os.PutInt64(obuf, OCID, int64(c))
		os.PutInt64(obuf, OEntryD, 1)
		os.PutInt64(obuf, OOlCnt, int64(olCnt))
		os.PutInt64(obuf, OAllLocal, 1)
		// Last third of the orders are undelivered (spec: 2101..3000).
		delivered := o <= l.cfg.OrdersPerDistrict*2/3
		if delivered {
			os.PutInt64(obuf, OCarrierID, int64(l.rng.Intn(10)+1))
		}
		if err := l.install(to, oKey(w, d, o), obuf); err != nil {
			return err
		}
		if !delivered {
			nos.PutUint64(nobuf, NOKey, noKey(w, d, o))
			if err := l.install(tno, noKey(w, d, o), nobuf); err != nil {
				return err
			}
		}
		for ol := 1; ol <= olCnt; ol++ {
			for j := range olbuf {
				olbuf[j] = 0
			}
			ols.PutUint64(olbuf, OLKey, olKey(w, d, o, ol))
			ols.PutInt64(olbuf, OLIID, int64(l.rng.Intn(l.cfg.Items)+1))
			ols.PutInt64(olbuf, OLSupplyW, int64(w))
			ols.PutInt64(olbuf, OLQuantity, 5)
			if delivered {
				ols.PutInt64(olbuf, OLDeliveryD, 1)
				ols.PutInt64(olbuf, OLAmount, 0)
			} else {
				ols.PutInt64(olbuf, OLAmount, int64(l.rng.Intn(999999)+1))
			}
			l.fillString(ols, olbuf, OLDistInfo, 24, 24)
			if err := l.install(tol, olKey(w, d, o, ol), olbuf); err != nil {
				return err
			}
		}
	}
	return nil
}

// nuRand is the spec's non-uniform random distribution (4.3.2.5).
func nuRand(rng *rand.Rand, a, x, y int) int {
	c := a / 2
	return (((rng.Intn(a+1) | (rng.Intn(y-x+1) + x)) + c) % (y - x + 1)) + x
}
