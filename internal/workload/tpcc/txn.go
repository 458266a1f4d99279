package tpcc

import (
	"errors"
	"fmt"
	"sync/atomic"

	"falcon/internal/core"
)

// Driver issues TPC-C transactions. One Driver serves all workers.
type Driver struct {
	cfg Config
	e   *core.Engine

	warehouse, district, customer, history  *core.Table
	newOrder, order, orderLine, item, stock *core.Table
	workers                                 []tpccWorker
	// hbase is the first free history key at attach time; fresh keys are
	// drawn from per-worker interleaved sequences above it (see nextHKey).
	hbase uint64

	// per-type commit counters for mix verification and reporting
	counts [5]atomic.Uint64
}

type tpccWorker struct {
	rng  uint64
	dseq uint64 // logical-date draws by this worker
	hseq uint64 // history-key draws by this worker
	cbuf []byte // customer scratch
	obuf []byte
	sbuf []byte
	dbuf []byte
	// StockLevel's distinct items, in scan order and as a set.
	items []int64
	seen  map[int64]struct{}
	_     [4]uint64
}

// TxnType enumerates the five transaction profiles.
type TxnType int

// Transaction types in mix order.
const (
	TxnNewOrder TxnType = iota
	TxnPayment
	TxnOrderStatus
	TxnDelivery
	TxnStockLevel
)

func (t TxnType) String() string {
	return [...]string{"NewOrder", "Payment", "OrderStatus", "Delivery", "StockLevel"}[t]
}

// NewDriver binds a driver to a loaded engine.
func NewDriver(e *core.Engine, cfg Config) (*Driver, error) {
	cfg = cfg.withDefaults()
	d := &Driver{cfg: cfg, e: e}
	for _, bind := range []struct {
		name string
		dst  **core.Table
	}{
		{TWarehouse, &d.warehouse}, {TDistrict, &d.district}, {TCustomer, &d.customer},
		{THistory, &d.history}, {TNewOrder, &d.newOrder}, {TOrder, &d.order},
		{TOrderLine, &d.orderLine}, {TItem, &d.item}, {TStock, &d.stock},
	} {
		*bind.dst = e.Table(bind.name)
		if *bind.dst == nil {
			return nil, fmt.Errorf("tpcc: table %q missing", bind.name)
		}
	}
	last, _, err := d.history.LastKey()
	if err != nil {
		return nil, fmt.Errorf("tpcc: history frontier: %w", err)
	}
	// Fresh history keys start above every existing one, so a driver attached
	// to a recovered database continues the sequence instead of colliding.
	d.hbase = last + 1
	d.workers = make([]tpccWorker, e.Config().Threads)
	for w := range d.workers {
		ws := &d.workers[w]
		ws.rng = splitmixSeed(uint64(w) + 12345)
		ws.cbuf = make([]byte, d.customer.Schema().TupleSize())
		ws.obuf = make([]byte, d.order.Schema().TupleSize())
		ws.sbuf = make([]byte, d.stock.Schema().TupleSize())
		ws.dbuf = make([]byte, d.district.Schema().TupleSize())
		ws.seen = make(map[int64]struct{}, 256)
	}
	return d, nil
}

// nextDate returns a fresh logical date. Dates come from per-worker
// interleaved sequences (worker w draws w, w+T, w+2T, ... above the load
// epoch) rather than a shared counter: the values a worker stamps into
// tuples are then a pure function of that worker's own history, which the
// deterministic group scheduler requires for schedule-independent results.
func (d *Driver) nextDate(w int) int64 {
	ws := &d.workers[w]
	v := int64(3) + int64(ws.dseq*uint64(len(d.workers))+uint64(w))
	ws.dseq++
	return v
}

// nextHKey returns a fresh history primary key, unique across workers
// (disjoint residues mod the worker count) and schedule-independent.
func (d *Driver) nextHKey(w int) uint64 {
	ws := &d.workers[w]
	v := d.hbase + ws.hseq*uint64(len(d.workers)) + uint64(w)
	ws.hseq++
	return v
}

// splitmixSeed finalizes a seed into a well-mixed generator state.
func splitmixSeed(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (d *Driver) rand(w int) uint64 {
	ws := &d.workers[w]
	ws.rng ^= ws.rng >> 12
	ws.rng ^= ws.rng << 25
	ws.rng ^= ws.rng >> 27
	return ws.rng * 2685821657736338717
}

func (d *Driver) randN(w, n int) int { return int(d.rand(w) % uint64(n)) }

// nuRandW draws from the spec's non-uniform distribution using the worker's
// generator.
func (d *Driver) nuRand(w, a, x, y int) int {
	return (((d.randN(w, a+1) | (d.randN(w, y-x+1) + x)) + a/2) % (y - x + 1)) + x
}

// homeWarehouse pins each worker to a home warehouse (standard terminal
// binding: contention comes from remote accesses and shared districts).
func (d *Driver) homeWarehouse(w int) int {
	return w%d.cfg.Warehouses + 1
}

// nameNum draws a last-name number that exists in the scaled-down database:
// the spec's NURand(255, 0, 999) assumes ≥1000 sequentially-named customers
// per district.
func (d *Driver) nameNum(w int) int {
	n := d.nuRand(w, 255, 0, 999)
	if d.cfg.CustomersPerDistrict < 1000 {
		n %= d.cfg.CustomersPerDistrict
	}
	return n
}

// Mix returns the transaction type for a roll of [0,100): 45/43/4/4/4.
func Mix(roll int) TxnType {
	switch {
	case roll < 45:
		return TxnNewOrder
	case roll < 88:
		return TxnPayment
	case roll < 92:
		return TxnOrderStatus
	case roll < 96:
		return TxnDelivery
	default:
		return TxnStockLevel
	}
}

// Next executes one transaction from the standard mix on worker w.
func (d *Driver) Next(w int) error {
	_, err := d.NextTyped(w)
	return err
}

// NextTyped executes one mixed transaction and reports its type (latency
// class for the harness).
func (d *Driver) NextTyped(w int) (TxnType, error) {
	t := Mix(d.randN(w, 100))
	return t, d.Exec(w, t)
}

// Exec runs one transaction of the given type.
func (d *Driver) Exec(w int, t TxnType) error {
	var err error
	switch t {
	case TxnNewOrder:
		err = d.NewOrderTxn(w)
		if errors.Is(err, core.ErrRollback) {
			err = nil // the 1% intentional rollback still counts as served
		}
	case TxnPayment:
		err = d.PaymentTxn(w)
	case TxnOrderStatus:
		err = d.OrderStatusTxn(w)
	case TxnDelivery:
		err = d.DeliveryTxn(w)
	default:
		err = d.StockLevelTxn(w)
	}
	if err == nil {
		d.counts[t].Add(1)
	} else {
		err = fmt.Errorf("%v: %w", t, err)
	}
	return err
}

// Counts reports per-type committed counts.
func (d *Driver) Counts() map[string]uint64 {
	out := make(map[string]uint64, 5)
	for i := range d.counts {
		out[TxnType(i).String()] = d.counts[i].Load()
	}
	return out
}

// NewOrderTxn implements the NewOrder profile (spec 2.4): read warehouse and
// customer, bump the district's next order id, insert order + new-order, and
// for 5–15 lines read the item and update the stock. 1% of transactions roll
// back on an invalid item.
func (d *Driver) NewOrderTxn(w int) error {
	home := d.homeWarehouse(w)
	did := d.randN(w, Districts) + 1
	cid := d.nuRand(w, 1023, 1, d.cfg.CustomersPerDistrict)
	olCnt := d.randN(w, 11) + 5
	rollback := d.randN(w, 100) == 0

	type line struct {
		item   int
		supply int
		qty    int64
		remote bool
	}
	lines := make([]line, olCnt)
	for i := range lines {
		it := d.nuRand(w, 8191, 1, d.cfg.Items)
		supply := home
		remote := false
		if d.cfg.Warehouses > 1 && d.randN(w, 100) == 0 {
			supply = d.randN(w, d.cfg.Warehouses) + 1
			remote = supply != home
		}
		lines[i] = line{item: it, supply: supply, qty: int64(d.randN(w, 10) + 1), remote: remote}
	}
	date := d.nextDate(w)

	return d.e.Run(w, func(tx *core.Txn) error {
		ws := &d.workers[w]
		ds, cs, is, ss := d.district.Schema(), d.customer.Schema(), d.item.Schema(), d.stock.Schema()

		var wtax [8]byte
		if err := tx.ReadField(d.warehouse, wKey(home), WTax, wtax[:]); err != nil {
			return err
		}
		// Customer: discount, last name, credit; never c_data.
		if err := tx.ReadCols(d.customer, cKey(home, did, cid), CData, ws.cbuf); err != nil {
			return err
		}
		_ = cs

		// District: read tax + next_o_id, bump next_o_id (select-for-update
		// — the district row is the NewOrder contention point).
		if err := tx.ReadColsForUpdate(d.district, dKey(home, did), DNextOID+1, ws.dbuf); err != nil {
			return err
		}
		oid := int(ds.GetInt64(ws.dbuf, DNextOID))
		var next [8]byte
		putI64(next[:], int64(oid+1))
		if err := tx.UpdateField(d.district, dKey(home, did), DNextOID, next[:]); err != nil {
			return err
		}

		// Insert ORDER and NEW-ORDER.
		os := d.order.Schema()
		obuf := ws.obuf
		for j := range obuf {
			obuf[j] = 0
		}
		os.PutUint64(obuf, OKey, oKey(home, did, oid))
		os.PutUint64(obuf, OSecKey, oSecKey(home, did, cid, oid))
		os.PutInt64(obuf, OCID, int64(cid))
		os.PutInt64(obuf, OEntryD, date)
		os.PutInt64(obuf, OOlCnt, int64(olCnt))
		os.PutInt64(obuf, OAllLocal, 1)
		if err := tx.Insert(d.order, oKey(home, did, oid), obuf); err != nil {
			if errors.Is(err, core.ErrDuplicateKey) {
				// OCC read the district's next_o_id optimistically; a racer
				// committed the same oid first. Validation would abort us
				// anyway — retry now.
				return core.ErrConflict
			}
			return err
		}
		nos := d.newOrder.Schema()
		nobuf := make([]byte, nos.TupleSize())
		nos.PutUint64(nobuf, NOKey, noKey(home, did, oid))
		if err := tx.Insert(d.newOrder, noKey(home, did, oid), nobuf); err != nil {
			if errors.Is(err, core.ErrDuplicateKey) {
				return core.ErrConflict
			}
			return err
		}

		ols := d.orderLine.Schema()
		olbuf := make([]byte, ols.TupleSize())
		for i, ln := range lines {
			if rollback && i == len(lines)-1 {
				return core.ErrRollback // invalid item: spec's 1% rollback
			}
			var price [8]byte
			if err := tx.ReadField(d.item, iKey(ln.item), IPrice, price[:]); err != nil {
				return err
			}
			_ = is

			// Stock: read the counters and the district's s_dist_xx (never
			// s_data: brand-generic is not modelled), then update
			// quantity/ytd/order_cnt(/remote_cnt).
			if err := tx.ReadColsForUpdate(d.stock, sKey(ln.supply, ln.item), SRemoteCnt+1, ws.sbuf); err != nil {
				return err
			}
			distOff := ss.Offset(SDist01 + did - 1)
			dist := ws.sbuf[distOff : distOff+24]
			if err := tx.ReadField(d.stock, sKey(ln.supply, ln.item), SDist01+did-1, dist); err != nil {
				return err
			}
			qty := ss.GetInt64(ws.sbuf, SQuantity)
			if qty >= ln.qty+10 {
				qty -= ln.qty
			} else {
				qty = qty - ln.qty + 91
			}
			ss.PutInt64(ws.sbuf, SQuantity, qty)
			ss.PutInt64(ws.sbuf, SYtd, ss.GetInt64(ws.sbuf, SYtd)+ln.qty)
			ss.PutInt64(ws.sbuf, SOrderCnt, ss.GetInt64(ws.sbuf, SOrderCnt)+1)
			if ln.remote {
				ss.PutInt64(ws.sbuf, SRemoteCnt, ss.GetInt64(ws.sbuf, SRemoteCnt)+1)
			}
			// One contiguous update covering the four counters (they are
			// adjacent columns — the in-place engines' partial-write
			// advantage the paper highlights).
			start := ss.Offset(SQuantity)
			end := ss.Offset(SRemoteCnt) + 8
			if err := tx.Update(d.stock, sKey(ln.supply, ln.item), start, ws.sbuf[start:end]); err != nil {
				return err
			}

			for j := range olbuf {
				olbuf[j] = 0
			}
			amount := ln.qty * i64(price[:])
			ols.PutUint64(olbuf, OLKey, olKey(home, did, oid, i+1))
			ols.PutInt64(olbuf, OLIID, int64(ln.item))
			ols.PutInt64(olbuf, OLSupplyW, int64(ln.supply))
			ols.PutInt64(olbuf, OLQuantity, ln.qty)
			ols.PutInt64(olbuf, OLAmount, amount)
			ols.PutBytes(olbuf, OLDistInfo, dist)
			if err := tx.Insert(d.orderLine, olKey(home, did, oid, i+1), olbuf); err != nil {
				if errors.Is(err, core.ErrDuplicateKey) {
					return core.ErrConflict
				}
				return err
			}
		}
		return nil
	})
}

// PaymentTxn implements the Payment profile (spec 2.5): update warehouse and
// district YTD, select the customer by id (40%) or last name (60%), update
// the customer's balance counters, insert a history row.
func (d *Driver) PaymentTxn(w int) error {
	home := d.homeWarehouse(w)
	did := d.randN(w, Districts) + 1
	amount := int64(d.randN(w, 499901) + 100) // 1.00 .. 5000.00
	// 85% home district customer, 15% remote.
	cw, cd := home, did
	if d.cfg.Warehouses > 1 && d.randN(w, 100) >= 85 {
		for cw == home {
			cw = d.randN(w, d.cfg.Warehouses) + 1
		}
		cd = d.randN(w, Districts) + 1
	}
	byName := d.randN(w, 100) < 60
	var nameNum int
	var cid int
	if byName {
		nameNum = d.nameNum(w)
	} else {
		cid = d.nuRand(w, 1023, 1, d.cfg.CustomersPerDistrict)
	}
	date := d.nextDate(w)
	hkey := d.nextHKey(w)

	return d.e.Run(w, func(tx *core.Txn) error {
		ws := &d.workers[w]
		cs := d.customer.Schema()

		var ytd [8]byte
		if err := tx.ReadFieldForUpdate(d.warehouse, wKey(home), WYtd, ytd[:]); err != nil {
			return err
		}
		putI64(ytd[:], i64(ytd[:])+amount)
		if err := tx.UpdateField(d.warehouse, wKey(home), WYtd, ytd[:]); err != nil {
			return err
		}
		if err := tx.ReadFieldForUpdate(d.district, dKey(home, did), DYtd, ytd[:]); err != nil {
			return err
		}
		putI64(ytd[:], i64(ytd[:])+amount)
		if err := tx.UpdateField(d.district, dKey(home, did), DYtd, ytd[:]); err != nil {
			return err
		}

		key := uint64(0)
		if byName {
			k, err := d.customerByName(tx, cw, cd, nameNum, ws.cbuf)
			if err != nil {
				return err
			}
			key = k
		} else {
			key = cKey(cw, cd, cid)
			if err := tx.ReadColsForUpdate(d.customer, key, CData, ws.cbuf); err != nil {
				return err
			}
		}

		cs.PutInt64(ws.cbuf, CBalance, cs.GetInt64(ws.cbuf, CBalance)-amount)
		cs.PutInt64(ws.cbuf, CYtdPayment, cs.GetInt64(ws.cbuf, CYtdPayment)+amount)
		cs.PutInt64(ws.cbuf, CPaymentCnt, cs.GetInt64(ws.cbuf, CPaymentCnt)+1)
		start := cs.Offset(CBalance)
		end := cs.Offset(CPaymentCnt) + 8
		if err := tx.Update(d.customer, key, start, ws.cbuf[start:end]); err != nil {
			return err
		}

		hs := d.history.Schema()
		hbuf := make([]byte, hs.TupleSize())
		hs.PutUint64(hbuf, HKey, hkey)
		hs.PutUint64(hbuf, HCKey, key)
		hs.PutUint64(hbuf, HDKey, dKey(home, did))
		hs.PutInt64(hbuf, HDate, date)
		hs.PutInt64(hbuf, HAmount, amount)
		return tx.Insert(d.history, hkey, hbuf)
	})
}

// customerByName resolves the spec's select-by-last-name: gather matching
// customers via the secondary index, pick the middle one (position ⌈n/2⌉).
func (d *Driver) customerByName(tx *core.Txn, w, did, nameNum int, cbuf []byte) (uint64, error) {
	var name [18]byte
	last := lastName(nameNum, name[:0])
	prefix := cSecPrefix(w, did, last)
	// All matching customers share the 42-bit (w,d,hash) prefix.
	const prefixMask = ^uint64(1<<22 - 1)
	var keys []uint64
	cs := d.customer.Schema()
	_, err := tx.ScanSecondaryCols(d.customer, prefix, 0, CLast+1, func(secKey uint64, payload []byte) bool {
		if secKey&prefixMask != prefix&prefixMask {
			return false
		}
		// Hash collisions are possible; verify the actual name.
		got := cs.GetBytes(payload, CLast)
		if !bytesEqualPrefix(got, last) {
			return true
		}
		keys = append(keys, cs.GetUint64(payload, CKey))
		return true
	})
	if err != nil {
		return 0, err
	}
	if len(keys) == 0 {
		return 0, core.ErrNotFound
	}
	key := keys[len(keys)/2]
	if err := tx.ReadCols(d.customer, key, CData, cbuf); err != nil {
		return 0, err
	}
	return key, nil
}

// OrderStatusTxn (spec 2.6, read-only): customer by id or name, their most
// recent order, and its order lines.
func (d *Driver) OrderStatusTxn(w int) error {
	home := d.homeWarehouse(w)
	did := d.randN(w, Districts) + 1
	byName := d.randN(w, 100) < 60
	var nameNum, cid int
	if byName {
		nameNum = d.nameNum(w)
	} else {
		cid = d.nuRand(w, 1023, 1, d.cfg.CustomersPerDistrict)
	}

	return d.e.RunRO(w, func(tx *core.Txn) error {
		ws := &d.workers[w]
		cs := d.customer.Schema()
		var key uint64
		if byName {
			k, err := d.customerByName(tx, home, did, nameNum, ws.cbuf)
			if err != nil {
				if errors.Is(err, core.ErrNotFound) {
					return nil
				}
				return err
			}
			key = k
		} else {
			key = cKey(home, did, cid)
			if err := tx.ReadCols(d.customer, key, CData, ws.cbuf); err != nil {
				return err
			}
		}
		custID := int(cs.GetUint64(ws.cbuf, CKey) & 0x3FFFFF)

		// Most recent order via the order secondary (w,d,c | o).
		prefix := oSecPrefix(home, did, custID)
		const prefixMask = ^uint64(1<<16 - 1)
		lastOrder := uint64(0)
		if _, err := tx.ScanSecondaryCols(d.order, prefix, 0, OCarrierID+1, func(secKey uint64, payload []byte) bool {
			if secKey&prefixMask != prefix&prefixMask {
				return false
			}
			lastOrder = d.order.Schema().GetUint64(payload, OKey)
			return true
		}); err != nil {
			return err
		}
		if lastOrder == 0 {
			return nil // customer has no orders yet
		}
		// Read its order lines.
		olPrefix := olKeyPrefix(home, did, int(lastOrder&0x3FFFFFFFF))
		const olMask = ^uint64(1<<6 - 1)
		_, err := tx.ScanCols(d.orderLine, olPrefix, maxOrderLines, OLDistInfo, func(k uint64, payload []byte) bool {
			return k&olMask == olPrefix&olMask
		})
		return err
	})
}

// DeliveryTxn (spec 2.7): for each district, take the oldest undelivered
// order, delete its NEW-ORDER row, stamp the carrier, set the delivery date
// on each line, and credit the customer's balance.
func (d *Driver) DeliveryTxn(w int) error {
	home := d.homeWarehouse(w)
	carrier := int64(d.randN(w, 10) + 1)
	date := d.nextDate(w)

	for did := 1; did <= Districts; did++ {
		did := did
		err := d.e.Run(w, func(tx *core.Txn) error {
			// Oldest NEW-ORDER of this district.
			prefix := oKeyPrefix(home, did)
			var noK uint64
			districtShift := oKey(home, did, 0)
			if _, err := tx.Scan(d.newOrder, prefix, 1, func(k uint64, payload []byte) bool {
				if k>>34 == districtShift>>34 {
					noK = k
				}
				return false
			}); err != nil {
				return err
			}
			if noK == 0 {
				return nil // nothing to deliver here
			}
			oid := int(noK & 0x3FFFFFFFF)
			if err := tx.Delete(d.newOrder, noK); err != nil {
				if errors.Is(err, core.ErrNotFound) {
					return nil // another terminal delivered it first
				}
				return err
			}

			// Stamp the order's carrier and collect its customer + lines.
			ws := &d.workers[w]
			os := d.order.Schema()
			if err := tx.ReadColsForUpdate(d.order, oKey(home, did, oid), OCID+1, ws.obuf); err != nil {
				return err
			}
			cid := int(os.GetInt64(ws.obuf, OCID))
			var cb [8]byte
			putI64(cb[:], carrier)
			if err := tx.UpdateField(d.order, oKey(home, did, oid), OCarrierID, cb[:]); err != nil {
				return err
			}

			ols := d.orderLine.Schema()
			olPrefix := olKeyPrefix(home, did, oid)
			const olMask = ^uint64(1<<6 - 1)
			var total int64
			var lineKeys []uint64
			if _, err := tx.ScanCols(d.orderLine, olPrefix, maxOrderLines, OLDistInfo, func(k uint64, payload []byte) bool {
				if k&olMask != olPrefix&olMask {
					return false
				}
				total += ols.GetInt64(payload, OLAmount)
				lineKeys = append(lineKeys, k)
				return true
			}); err != nil {
				return err
			}
			var dd [8]byte
			putI64(dd[:], date)
			for _, k := range lineKeys {
				if err := tx.UpdateField(d.orderLine, k, OLDeliveryD, dd[:]); err != nil {
					return err
				}
			}

			// Credit the customer.
			cs := d.customer.Schema()
			key := cKey(home, did, cid)
			if err := tx.ReadColsForUpdate(d.customer, key, CDeliveryCnt+1, ws.cbuf); err != nil {
				return err
			}
			cs.PutInt64(ws.cbuf, CBalance, cs.GetInt64(ws.cbuf, CBalance)+total)
			cs.PutInt64(ws.cbuf, CDeliveryCnt, cs.GetInt64(ws.cbuf, CDeliveryCnt)+1)
			start := cs.Offset(CBalance)
			if err := tx.Update(d.customer, key, start, ws.cbuf[start:start+8]); err != nil {
				return err
			}
			return tx.UpdateField(d.customer, key, CDeliveryCnt, ws.cbuf[cs.Offset(CDeliveryCnt):cs.Offset(CDeliveryCnt)+8])
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// StockLevelTxn (spec 2.8, read-only): count distinct items from the last 20
// orders of a district whose stock is below a threshold.
func (d *Driver) StockLevelTxn(w int) error {
	home := d.homeWarehouse(w)
	did := d.randN(w, Districts) + 1
	threshold := int64(d.randN(w, 11) + 10)

	return d.e.RunRO(w, func(tx *core.Txn) error {
		ws := &d.workers[w]
		ds := d.district.Schema()
		if err := tx.ReadCols(d.district, dKey(home, did), DNextOID+1, ws.dbuf); err != nil {
			return err
		}
		nextO := int(ds.GetInt64(ws.dbuf, DNextOID))
		firstO := nextO - 20
		if firstO < 1 {
			firstO = 1
		}
		ols := d.orderLine.Schema()
		seen, items := ws.seen, ws.items[:0]
		clear(seen)
		olPrefix := olKeyPrefix(home, did, firstO)
		limit := olKeyPrefix(home, did, nextO)
		if _, err := tx.ScanCols(d.orderLine, olPrefix, 0, OLDistInfo, func(k uint64, payload []byte) bool {
			if k >= limit {
				return false
			}
			item := ols.GetInt64(payload, OLIID)
			if _, dup := seen[item]; !dup {
				seen[item] = struct{}{}
				items = append(items, item)
			}
			return true
		}); err != nil {
			return err
		}
		ws.items = items
		// Probe stock in scan order, not map order: ranging over the map
		// would issue the reads in Go's randomized iteration order, making
		// the simulated cache walk differ between identical runs.
		low := 0
		var q [8]byte
		for _, item := range items {
			if err := tx.ReadField(d.stock, sKey(home, int(item)), SQuantity, q[:]); err != nil {
				return err
			}
			if i64(q[:]) < threshold {
				low++
			}
		}
		_ = low
		return nil
	})
}

func putI64(b []byte, v int64) {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
}

func i64(b []byte) int64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u |= uint64(b[i]) << (8 * i)
	}
	return int64(u)
}

func bytesEqualPrefix(got, want []byte) bool {
	if len(got) < len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return len(got) == len(want) || got[len(want)] == 0
}
