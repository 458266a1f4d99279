// Package tpcc implements the TPC-C benchmark (paper §6.1): nine tables and
// five transaction types with the standard mix — NewOrder 45%, Payment 43%,
// OrderStatus 4%, Delivery 4%, StockLevel 4%. NewOrder and Payment are the
// short read-write transactions that dominate the workload; OrderStatus and
// StockLevel are read-only; Delivery is the long read-write transaction.
//
// Money is stored in integer cents and tax/discount rates in basis points so
// the workload is deterministic and replay-idempotent. Composite keys are
// packed into uint64s (see keys.go).
package tpcc

import (
	"fmt"

	"falcon/internal/core"
	"falcon/internal/index"
	"falcon/internal/layout"
)

// Table names.
const (
	TWarehouse = "warehouse"
	TDistrict  = "district"
	TCustomer  = "customer"
	THistory   = "history"
	TNewOrder  = "new_order"
	TOrder     = "orders"
	TOrderLine = "order_line"
	TItem      = "item"
	TStock     = "stock"
)

// Config scales the benchmark. Paper defaults: 2048 warehouses, 100,000
// items, 3,000 customers per district; this reproduction scales down by
// default but keeps the structure.
type Config struct {
	// Warehouses is the warehouse count (the contention knob).
	Warehouses int
	// Items is the item/stock catalog size (default 10,000; spec 100,000).
	Items int
	// CustomersPerDistrict (default 300; spec 3,000). Each district is
	// preloaded with as many orders, as the spec has it.
	CustomersPerDistrict int
	// OrderHeadroom multiplies order/order-line/history capacity to leave
	// room for NewOrder growth during a run (default 4).
	OrderHeadroom int
}

// Districts per warehouse is fixed by the spec.
const Districts = 10

// maxOrderLines is the spec's per-order line limit.
const maxOrderLines = 15

func (c Config) withDefaults() Config {
	if c.Warehouses == 0 {
		c.Warehouses = 2
	}
	if c.Items == 0 {
		c.Items = 10_000
	}
	if c.CustomersPerDistrict == 0 {
		c.CustomersPerDistrict = 300
	}
	if c.OrderHeadroom == 0 {
		c.OrderHeadroom = 4
	}
	return c
}

// Column indexes used by the transactions (kept in one place so schema and
// code stay in sync).
const (
	// warehouse
	WID, WTax, WYtd, WName = 0, 1, 2, 3
	// district
	DKey, DTax, DYtd, DNextOID, DName = 0, 1, 2, 3, 4
	// customer
	CKey, CSecKey, CBalance, CYtdPayment, CPaymentCnt, CDeliveryCnt,
	CDiscount, CCreditLim, CFirst, CMiddle, CLast, CData = 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 19
	// history
	HKey, HCKey, HDKey, HDate, HAmount = 0, 1, 2, 3, 4
	// new_order
	NOKey = 0
	// orders
	OKey, OSecKey, OCID, OEntryD, OCarrierID, OOlCnt, OAllLocal = 0, 1, 2, 3, 4, 5, 6
	// order_line
	OLKey, OLIID, OLSupplyW, OLDeliveryD, OLQuantity, OLAmount, OLDistInfo = 0, 1, 2, 3, 4, 5, 6
	// item
	IID, IImID, IPrice, IName, IData = 0, 1, 2, 3, 4
	// stock: s_dist_01 … s_dist_10 are columns SDist01 … SDist01+9
	SKey, SQuantity, SYtd, SOrderCnt, SRemoteCnt, SDist01, SData = 0, 1, 2, 3, 4, 5, 15
)

func warehouseSchema() *layout.Schema {
	return layout.NewSchema(
		layout.Column{Name: "w_id", Kind: layout.Uint64},
		layout.Column{Name: "w_tax", Kind: layout.Int64},
		layout.Column{Name: "w_ytd", Kind: layout.Int64},
		layout.Column{Name: "w_name", Kind: layout.Bytes, Size: 10},
		layout.Column{Name: "w_street_1", Kind: layout.Bytes, Size: 20},
		layout.Column{Name: "w_street_2", Kind: layout.Bytes, Size: 20},
		layout.Column{Name: "w_city", Kind: layout.Bytes, Size: 20},
		layout.Column{Name: "w_state", Kind: layout.Bytes, Size: 2},
		layout.Column{Name: "w_zip", Kind: layout.Bytes, Size: 9},
	)
}

func districtSchema() *layout.Schema {
	return layout.NewSchema(
		layout.Column{Name: "d_key", Kind: layout.Uint64},
		layout.Column{Name: "d_tax", Kind: layout.Int64},
		layout.Column{Name: "d_ytd", Kind: layout.Int64},
		layout.Column{Name: "d_next_o_id", Kind: layout.Int64},
		layout.Column{Name: "d_name", Kind: layout.Bytes, Size: 10},
		layout.Column{Name: "d_street_1", Kind: layout.Bytes, Size: 20},
		layout.Column{Name: "d_street_2", Kind: layout.Bytes, Size: 20},
		layout.Column{Name: "d_city", Kind: layout.Bytes, Size: 20},
		layout.Column{Name: "d_state", Kind: layout.Bytes, Size: 2},
		layout.Column{Name: "d_zip", Kind: layout.Bytes, Size: 9},
	)
}

func customerSchema() *layout.Schema {
	return layout.NewSchema(
		layout.Column{Name: "c_key", Kind: layout.Uint64},
		layout.Column{Name: "c_seckey", Kind: layout.Uint64},
		layout.Column{Name: "c_balance", Kind: layout.Int64},
		layout.Column{Name: "c_ytd_payment", Kind: layout.Int64},
		layout.Column{Name: "c_payment_cnt", Kind: layout.Int64},
		layout.Column{Name: "c_delivery_cnt", Kind: layout.Int64},
		layout.Column{Name: "c_discount", Kind: layout.Int64},
		layout.Column{Name: "c_credit_lim", Kind: layout.Int64},
		layout.Column{Name: "c_first", Kind: layout.Bytes, Size: 16},
		layout.Column{Name: "c_middle", Kind: layout.Bytes, Size: 2},
		layout.Column{Name: "c_last", Kind: layout.Bytes, Size: 16},
		layout.Column{Name: "c_street_1", Kind: layout.Bytes, Size: 20},
		layout.Column{Name: "c_street_2", Kind: layout.Bytes, Size: 20},
		layout.Column{Name: "c_city", Kind: layout.Bytes, Size: 20},
		layout.Column{Name: "c_state", Kind: layout.Bytes, Size: 2},
		layout.Column{Name: "c_zip", Kind: layout.Bytes, Size: 9},
		layout.Column{Name: "c_phone", Kind: layout.Bytes, Size: 16},
		layout.Column{Name: "c_since", Kind: layout.Int64},
		layout.Column{Name: "c_credit", Kind: layout.Bytes, Size: 2},
		layout.Column{Name: "c_data", Kind: layout.Bytes, Size: 250},
	)
}

func historySchema() *layout.Schema {
	return layout.NewSchema(
		layout.Column{Name: "h_key", Kind: layout.Uint64},
		layout.Column{Name: "h_c_key", Kind: layout.Uint64},
		layout.Column{Name: "h_d_key", Kind: layout.Uint64},
		layout.Column{Name: "h_date", Kind: layout.Int64},
		layout.Column{Name: "h_amount", Kind: layout.Int64},
		layout.Column{Name: "h_data", Kind: layout.Bytes, Size: 24},
	)
}

func newOrderSchema() *layout.Schema {
	return layout.NewSchema(
		layout.Column{Name: "no_key", Kind: layout.Uint64},
	)
}

func orderSchema() *layout.Schema {
	return layout.NewSchema(
		layout.Column{Name: "o_key", Kind: layout.Uint64},
		layout.Column{Name: "o_seckey", Kind: layout.Uint64},
		layout.Column{Name: "o_c_id", Kind: layout.Int64},
		layout.Column{Name: "o_entry_d", Kind: layout.Int64},
		layout.Column{Name: "o_carrier_id", Kind: layout.Int64},
		layout.Column{Name: "o_ol_cnt", Kind: layout.Int64},
		layout.Column{Name: "o_all_local", Kind: layout.Int64},
	)
}

func orderLineSchema() *layout.Schema {
	return layout.NewSchema(
		layout.Column{Name: "ol_key", Kind: layout.Uint64},
		layout.Column{Name: "ol_i_id", Kind: layout.Int64},
		layout.Column{Name: "ol_supply_w_id", Kind: layout.Int64},
		layout.Column{Name: "ol_delivery_d", Kind: layout.Int64},
		layout.Column{Name: "ol_quantity", Kind: layout.Int64},
		layout.Column{Name: "ol_amount", Kind: layout.Int64},
		layout.Column{Name: "ol_dist_info", Kind: layout.Bytes, Size: 24},
	)
}

func itemSchema() *layout.Schema {
	return layout.NewSchema(
		layout.Column{Name: "i_id", Kind: layout.Uint64},
		layout.Column{Name: "i_im_id", Kind: layout.Int64},
		layout.Column{Name: "i_price", Kind: layout.Int64},
		layout.Column{Name: "i_name", Kind: layout.Bytes, Size: 24},
		layout.Column{Name: "i_data", Kind: layout.Bytes, Size: 50},
	)
}

func stockSchema() *layout.Schema {
	cols := []layout.Column{
		{Name: "s_key", Kind: layout.Uint64},
		{Name: "s_quantity", Kind: layout.Int64},
		{Name: "s_ytd", Kind: layout.Int64},
		{Name: "s_order_cnt", Kind: layout.Int64},
		{Name: "s_remote_cnt", Kind: layout.Int64},
	}
	for d := 1; d <= Districts; d++ {
		cols = append(cols, layout.Column{Name: fmt.Sprintf("s_dist_%02d", d), Kind: layout.Bytes, Size: 24})
	}
	return layout.NewSchema(append(cols, layout.Column{Name: "s_data", Kind: layout.Bytes, Size: 50})...)
}

// TableSpecs declares the nine tables for the engine. Ordered tables (order,
// new_order, order_line) use btrees for the scans Delivery, OrderStatus and
// StockLevel need, and history one for its ascending keys, which append at
// the tree's right edge and let a driver find the largest by a walk down it
// (Table.LastKey); point-access tables use the hash index.
func TableSpecs(cfg Config) []core.TableSpec {
	cfg = cfg.withDefaults()
	w := uint64(cfg.Warehouses)
	cust := w * Districts * uint64(cfg.CustomersPerDistrict)
	orders := w * Districts * uint64(cfg.CustomersPerDistrict) * uint64(cfg.OrderHeadroom)
	return []core.TableSpec{
		{Name: TWarehouse, Schema: warehouseSchema(), Capacity: w + 1, KeyCol: WID, IndexKind: index.Hash},
		{Name: TDistrict, Schema: districtSchema(), Capacity: w*Districts + 1, KeyCol: DKey, IndexKind: index.Hash},
		{Name: TCustomer, Schema: customerSchema(), Capacity: cust + 1, KeyCol: CKey,
			IndexKind: index.Hash, SecondaryCol: CSecKey},
		{Name: THistory, Schema: historySchema(), Capacity: cust*uint64(cfg.OrderHeadroom) + 1024, KeyCol: HKey, IndexKind: index.BTree},
		{Name: TNewOrder, Schema: newOrderSchema(), Capacity: orders + 1024, KeyCol: NOKey, IndexKind: index.BTree},
		{Name: TOrder, Schema: orderSchema(), Capacity: orders + 1024, KeyCol: OKey,
			IndexKind: index.BTree, SecondaryCol: OSecKey},
		{Name: TOrderLine, Schema: orderLineSchema(), Capacity: orders*maxOrderLines + 1024, KeyCol: OLKey, IndexKind: index.BTree},
		{Name: TItem, Schema: itemSchema(), Capacity: uint64(cfg.Items) + 1, KeyCol: IID, IndexKind: index.Hash},
		{Name: TStock, Schema: stockSchema(), Capacity: w*uint64(cfg.Items) + 1, KeyCol: SKey, IndexKind: index.Hash},
	}
}
