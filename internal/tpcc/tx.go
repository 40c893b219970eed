package tpcc

import (
	"errors"
	"fmt"
	"strconv"

	"met/internal/hbase"
	"met/internal/sim"
)

// TxType identifies a TPC-C transaction.
type TxType int

// The five TPC-C transactions.
const (
	TxNewOrder TxType = iota
	TxPayment
	TxOrderStatus
	TxDelivery
	TxStockLevel
)

// String implements fmt.Stringer.
func (t TxType) String() string {
	switch t {
	case TxNewOrder:
		return "new_order"
	case TxPayment:
		return "payment"
	case TxOrderStatus:
		return "order_status"
	case TxDelivery:
		return "delivery"
	case TxStockLevel:
		return "stock_level"
	default:
		return fmt.Sprintf("TxType(%d)", int(t))
	}
}

// StandardMix is the TPC-C transaction mix: 45% NewOrder, 43% Payment,
// 4% each of OrderStatus, Delivery and StockLevel — the paper's "8%
// read-only and 92% update transactions".
var StandardMix = map[TxType]float64{
	TxNewOrder:    0.45,
	TxPayment:     0.43,
	TxOrderStatus: 0.04,
	TxDelivery:    0.04,
	TxStockLevel:  0.04,
}

// Executor runs TPC-C transactions against a cluster through its
// data-plane surface (the in-process client or rpc.Client).
type Executor struct {
	Cfg    Config
	Client hbase.KV
	RNG    *sim.RNG

	districtNextOID map[string]int // cached D_NEXT_O_ID per district key
	historySeq      int
}

// NewExecutor returns an executor over the loaded database.
func NewExecutor(cfg Config, c hbase.KV, rng *sim.RNG) *Executor {
	return &Executor{Cfg: cfg, Client: c, RNG: rng, districtNextOID: make(map[string]int)}
}

// PickTx draws a transaction type from the standard mix.
func (e *Executor) PickTx() TxType {
	x := e.RNG.Float64()
	for _, t := range []TxType{TxNewOrder, TxPayment, TxOrderStatus, TxDelivery, TxStockLevel} {
		p := StandardMix[t]
		if x < p {
			return t
		}
		x -= p
	}
	return TxNewOrder
}

// Execute runs one transaction of the given type on a random warehouse.
func (e *Executor) Execute(t TxType) error {
	w := 1 + e.RNG.Intn(e.Cfg.Warehouses)
	switch t {
	case TxNewOrder:
		return e.NewOrder(w)
	case TxPayment:
		return e.Payment(w)
	case TxOrderStatus:
		return e.OrderStatus(w)
	case TxDelivery:
		return e.Delivery(w)
	case TxStockLevel:
		return e.StockLevel(w)
	default:
		return fmt.Errorf("tpcc: unknown transaction %v", t)
	}
}

// getRow fetches and decodes one row.
func (e *Executor) getRow(table, key string) (map[string]string, error) {
	v, err := e.Client.Get(table, key)
	if err != nil {
		return nil, err
	}
	return decodeRow(v), nil
}

// putRow encodes and writes one row.
func (e *Executor) putRow(table, key string, fields map[string]string) error {
	return e.Client.Put(table, key, encodeRow(fields, e.Cfg.ValueFiller))
}

// nextOrderID reads-and-increments the district's D_NEXT_O_ID.
func (e *Executor) nextOrderID(w, d int) (int, error) {
	key := DistrictKey(w, d)
	dist, err := e.getRow(TableDistrict, key)
	if err != nil {
		return 0, err
	}
	oid := fieldInt(dist, "D_NEXT_O_ID")
	if cached, ok := e.districtNextOID[key]; ok && cached > oid {
		oid = cached // record-level atomicity: the cache papers over lost updates
	}
	dist["D_NEXT_O_ID"] = strconv.Itoa(oid + 1)
	if err := e.putRow(TableDistrict, key, dist); err != nil {
		return 0, err
	}
	e.districtNextOID[key] = oid + 1
	return oid, nil
}

// NewOrder is the tpmC transaction: read warehouse/district/customer,
// allocate an order id, insert order + new-order rows, and for 5–15
// items read the item, update its stock, and insert an order line.
func (e *Executor) NewOrder(w int) error {
	d := 1 + e.RNG.Intn(e.Cfg.DistrictsPerWH)
	c := NURand(e.RNG, 1023, 1, e.Cfg.CustomersPerDistrict)

	if _, err := e.getRow(TableWarehouse, WarehouseKey(w)); err != nil {
		return err
	}
	if _, err := e.getRow(TableCustomer, CustomerKey(w, d, c)); err != nil {
		return err
	}
	oid, err := e.nextOrderID(w, d)
	if err != nil {
		return err
	}
	numItems := 5 + e.RNG.Intn(11)
	if err := e.putRow(TableOrder, OrderKey(w, d, oid), map[string]string{
		"O_ID": strconv.Itoa(oid), "O_C_ID": strconv.Itoa(c),
		"O_OL_CNT": strconv.Itoa(numItems), "O_CARRIER_ID": "0",
	}); err != nil {
		return err
	}
	if err := e.putRow(TableNewOrder, NewOrderKey(w, d, oid), map[string]string{
		"NO_O_ID": strconv.Itoa(oid),
	}); err != nil {
		return err
	}
	for l := 1; l <= numItems; l++ {
		item := NURand(e.RNG, 8191, 1, e.Cfg.Items)
		// 1% of lines hit a remote warehouse (TPC-C's distributed flavor).
		supplyW := w
		if e.Cfg.Warehouses > 1 && e.RNG.Float64() < 0.01 {
			supplyW = 1 + e.RNG.Intn(e.Cfg.Warehouses)
		}
		itemRow, err := e.getRow(TableItem, ItemKey(item))
		if err != nil {
			return err
		}
		stockKey := StockKey(supplyW, item)
		stock, err := e.getRow(TableStock, stockKey)
		if err != nil {
			return err
		}
		qty := fieldInt(stock, "S_QUANTITY")
		orderQty := 1 + e.RNG.Intn(10)
		if qty-orderQty >= 10 {
			qty -= orderQty
		} else {
			qty = qty - orderQty + 91
		}
		stock["S_QUANTITY"] = strconv.Itoa(qty)
		stock["S_YTD"] = strconv.Itoa(fieldInt(stock, "S_YTD") + orderQty)
		stock["S_ORDER_CNT"] = strconv.Itoa(fieldInt(stock, "S_ORDER_CNT") + 1)
		if supplyW != w {
			stock["S_REMOTE_CNT"] = strconv.Itoa(fieldInt(stock, "S_REMOTE_CNT") + 1)
		}
		if err := e.putRow(TableStock, stockKey, stock); err != nil {
			return err
		}
		amount := float64(orderQty) * fieldFloat(itemRow, "I_PRICE")
		if err := e.putRow(TableOrderLine, OrderLineKey(w, d, oid, l), map[string]string{
			"OL_I_ID":     strconv.Itoa(item),
			"OL_SUPPLY_W": strconv.Itoa(supplyW),
			"OL_QUANTITY": strconv.Itoa(orderQty),
			"OL_AMOUNT":   strconv.FormatFloat(amount, 'f', 2, 64),
		}); err != nil {
			return err
		}
	}
	return nil
}

// Payment updates warehouse and district YTD, the customer's balance,
// and inserts a history row.
func (e *Executor) Payment(w int) error {
	d := 1 + e.RNG.Intn(e.Cfg.DistrictsPerWH)
	c := NURand(e.RNG, 1023, 1, e.Cfg.CustomersPerDistrict)
	amount := 1 + e.RNG.Float64()*4999

	wh, err := e.getRow(TableWarehouse, WarehouseKey(w))
	if err != nil {
		return err
	}
	wh["W_YTD"] = strconv.FormatFloat(fieldFloat(wh, "W_YTD")+amount, 'f', 2, 64)
	if err := e.putRow(TableWarehouse, WarehouseKey(w), wh); err != nil {
		return err
	}
	dist, err := e.getRow(TableDistrict, DistrictKey(w, d))
	if err != nil {
		return err
	}
	dist["D_YTD"] = strconv.FormatFloat(fieldFloat(dist, "D_YTD")+amount, 'f', 2, 64)
	if err := e.putRow(TableDistrict, DistrictKey(w, d), dist); err != nil {
		return err
	}
	cust, err := e.getRow(TableCustomer, CustomerKey(w, d, c))
	if err != nil {
		return err
	}
	cust["C_BALANCE"] = strconv.FormatFloat(fieldFloat(cust, "C_BALANCE")-amount, 'f', 2, 64)
	cust["C_YTD_PAYMENT"] = strconv.FormatFloat(fieldFloat(cust, "C_YTD_PAYMENT")+amount, 'f', 2, 64)
	cust["C_PAYMENT_CNT"] = strconv.Itoa(fieldInt(cust, "C_PAYMENT_CNT") + 1)
	if err := e.putRow(TableCustomer, CustomerKey(w, d, c), cust); err != nil {
		return err
	}
	e.historySeq++
	return e.putRow(TableHistory, HistoryKey(w, d, c, e.historySeq), map[string]string{
		"H_AMOUNT": strconv.FormatFloat(amount, 'f', 2, 64),
	})
}

// OrderStatus is read-only: the customer's balance plus their most
// recent order and its order lines.
func (e *Executor) OrderStatus(w int) error {
	d := 1 + e.RNG.Intn(e.Cfg.DistrictsPerWH)
	c := NURand(e.RNG, 1023, 1, e.Cfg.CustomersPerDistrict)
	if _, err := e.getRow(TableCustomer, CustomerKey(w, d, c)); err != nil {
		return err
	}
	// Latest order: scan the tail of the district's order range.
	dist, err := e.getRow(TableDistrict, DistrictKey(w, d))
	if err != nil {
		return err
	}
	lastOID := fieldInt(dist, "D_NEXT_O_ID") - 1
	if lastOID < 1 {
		return nil
	}
	order, err := e.getRow(TableOrder, OrderKey(w, d, lastOID))
	if errors.Is(err, hbase.ErrNotFound) {
		return nil
	}
	if err != nil {
		return err
	}
	olCnt := fieldInt(order, "O_OL_CNT")
	_, err = e.Client.Scan(TableOrderLine, OrderLineKey(w, d, lastOID, 1), "", olCnt)
	return err
}

// Delivery processes the oldest undelivered order in every district of
// the warehouse: consume the new-order marker, stamp the order with a
// carrier, sum its lines, and credit the customer.
func (e *Executor) Delivery(w int) error {
	carrier := 1 + e.RNG.Intn(10)
	for d := 1; d <= e.Cfg.DistrictsPerWH; d++ {
		// Oldest new-order: scan from the start of the district's
		// new-order range.
		prefix := fmt.Sprintf("w%05d/d%03d/no", w, d)
		entries, err := e.Client.Scan(TableNewOrder, prefix, prefix+"~", 1)
		if err != nil {
			return err
		}
		if len(entries) == 0 {
			continue // no undelivered orders in this district
		}
		no := decodeRow(entries[0].Value)
		oid := fieldInt(no, "NO_O_ID")
		if err := e.Client.Delete(TableNewOrder, entries[0].Key); err != nil {
			return err
		}
		order, err := e.getRow(TableOrder, OrderKey(w, d, oid))
		if errors.Is(err, hbase.ErrNotFound) {
			continue
		}
		if err != nil {
			return err
		}
		order["O_CARRIER_ID"] = strconv.Itoa(carrier)
		if err := e.putRow(TableOrder, OrderKey(w, d, oid), order); err != nil {
			return err
		}
		olCnt := fieldInt(order, "O_OL_CNT")
		lines, err := e.Client.Scan(TableOrderLine, OrderLineKey(w, d, oid, 1), "", olCnt)
		if err != nil {
			return err
		}
		var total float64
		for _, l := range lines {
			total += fieldFloat(decodeRow(l.Value), "OL_AMOUNT")
		}
		cid := fieldInt(order, "O_C_ID")
		if cid < 1 {
			continue
		}
		cust, err := e.getRow(TableCustomer, CustomerKey(w, d, cid))
		if errors.Is(err, hbase.ErrNotFound) {
			continue
		}
		if err != nil {
			return err
		}
		cust["C_BALANCE"] = strconv.FormatFloat(fieldFloat(cust, "C_BALANCE")+total, 'f', 2, 64)
		cust["C_DELIVERY_CNT"] = strconv.Itoa(fieldInt(cust, "C_DELIVERY_CNT") + 1)
		if err := e.putRow(TableCustomer, CustomerKey(w, d, cid), cust); err != nil {
			return err
		}
	}
	return nil
}

// StockLevel is read-only: examine the order lines of the district's
// most recent 20 orders and count items with stock below a threshold.
func (e *Executor) StockLevel(w int) error {
	d := 1 + e.RNG.Intn(e.Cfg.DistrictsPerWH)
	threshold := 10 + e.RNG.Intn(11)
	dist, err := e.getRow(TableDistrict, DistrictKey(w, d))
	if err != nil {
		return err
	}
	nextOID := fieldInt(dist, "D_NEXT_O_ID")
	firstOID := nextOID - 20
	if firstOID < 1 {
		firstOID = 1
	}
	lines, err := e.Client.Scan(TableOrderLine, OrderLineKey(w, d, firstOID, 1), OrderLineKey(w, d, nextOID, 99), -1)
	if err != nil {
		return err
	}
	seen := make(map[int]bool)
	low := 0
	for _, l := range lines {
		item := fieldInt(decodeRow(l.Value), "OL_I_ID")
		if item == 0 || seen[item] {
			continue
		}
		seen[item] = true
		stock, err := e.getRow(TableStock, StockKey(w, item))
		if errors.Is(err, hbase.ErrNotFound) {
			continue
		}
		if err != nil {
			return err
		}
		if fieldInt(stock, "S_QUANTITY") < threshold {
			low++
		}
	}
	_ = low // result is reported to the terminal in real TPC-C
	return nil
}
