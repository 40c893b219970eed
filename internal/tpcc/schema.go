// Package tpcc reimplements the PyTPCC workload the paper uses for its
// versatility experiment (Section 6.3): the TPC-C schema (9 tables), the
// five transaction types with the standard mix (8% read-only / 92%
// update-heavy traffic), warehouse-based horizontal partitioning, and the
// tpmC metric (NewOrder transactions per minute).
//
// As in the paper's PyTPCC-on-HBase setup, transactions get HBase's
// isolation only — record-level atomicity, no multi-row ACID.
package tpcc

import (
	"fmt"
	"strconv"
	"strings"

	"met/internal/sim"
)

// Table names (the 9 TPC-C tables).
const (
	TableWarehouse = "warehouse"
	TableDistrict  = "district"
	TableCustomer  = "customer"
	TableHistory   = "history"
	TableNewOrder  = "new_order"
	TableOrder     = "orders"
	TableOrderLine = "order_line"
	TableItem      = "item"
	TableStock     = "stock"
)

// Tables lists all nine tables.
var Tables = []string{
	TableWarehouse, TableDistrict, TableCustomer, TableHistory,
	TableNewOrder, TableOrder, TableOrderLine, TableItem, TableStock,
}

// Config scales the database. Standard TPC-C sizes the tables per
// warehouse; tests shrink them.
type Config struct {
	Warehouses           int
	DistrictsPerWH       int
	CustomersPerDistrict int
	Items                int
	InitialOrdersPerDist int
	// ValueFiller pads every row to approximate real row widths
	// (TPC-C rows are a few hundred bytes).
	ValueFiller int
}

// Small returns a test-scale configuration.
func Small() Config {
	return Config{
		Warehouses:           2,
		DistrictsPerWH:       2,
		CustomersPerDistrict: 30,
		Items:                100,
		InitialOrdersPerDist: 10,
		ValueFiller:          16,
	}
}

// Validate sanity-checks the configuration.
func (c Config) Validate() error {
	if c.Warehouses < 1 || c.DistrictsPerWH < 1 || c.CustomersPerDistrict < 1 ||
		c.Items < 1 || c.InitialOrdersPerDist < 0 {
		return fmt.Errorf("tpcc: invalid config %+v", c)
	}
	return nil
}

// Key encodings. Every warehouse-scoped table is prefixed with the
// zero-padded warehouse id, which makes horizontal partitioning by
// warehouse a prefix split — "the usual setting for running TPC-C in
// distributed databases" the paper cites.

// WarehouseKey returns the key of warehouse w.
func WarehouseKey(w int) string { return fmt.Sprintf("w%05d", w) }

// DistrictKey returns the key of district d of warehouse w.
func DistrictKey(w, d int) string { return fmt.Sprintf("w%05d/d%03d", w, d) }

// CustomerKey returns the key of customer c in district (w, d).
func CustomerKey(w, d, c int) string { return fmt.Sprintf("w%05d/d%03d/c%06d", w, d, c) }

// HistoryKey returns a unique history row key.
func HistoryKey(w, d, c, seq int) string {
	return fmt.Sprintf("w%05d/d%03d/c%06d/h%09d", w, d, c, seq)
}

// OrderKey returns the key of order o in district (w, d).
func OrderKey(w, d, o int) string { return fmt.Sprintf("w%05d/d%03d/o%09d", w, d, o) }

// NewOrderKey returns the key of the new-order marker for order o.
func NewOrderKey(w, d, o int) string { return fmt.Sprintf("w%05d/d%03d/no%09d", w, d, o) }

// OrderLineKey returns the key of line l of order o.
func OrderLineKey(w, d, o, l int) string {
	return fmt.Sprintf("w%05d/d%03d/o%09d/l%02d", w, d, o, l)
}

// ItemKey returns the key of item i (items are not warehouse-scoped).
func ItemKey(i int) string { return fmt.Sprintf("i%06d", i) }

// StockKey returns the key of the stock row for item i at warehouse w.
func StockKey(w, i int) string { return fmt.Sprintf("w%05d/s%06d", w, i) }

// WarehousePrefix returns the key prefix shared by all of warehouse w's
// rows in warehouse-scoped tables, used to build split keys.
func WarehousePrefix(w int) string { return fmt.Sprintf("w%05d", w) }

// Row values are flat field maps serialized as "k=v;k=v;...#filler".
// TPC-C only needs a handful of numeric fields to be read-modify-write
// capable; the filler models realistic row widths.

// encodeRow serializes fields plus filler padding.
func encodeRow(fields map[string]string, filler int) []byte {
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	// Deterministic field order.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(fields[k])
	}
	b.WriteByte('#')
	for i := 0; i < filler; i++ {
		b.WriteByte('x')
	}
	return []byte(b.String())
}

// decodeRow parses a serialized row back into its fields.
func decodeRow(v []byte) map[string]string {
	out := make(map[string]string)
	s := string(v)
	if i := strings.IndexByte(s, '#'); i >= 0 {
		s = s[:i]
	}
	if s == "" {
		return out
	}
	for _, pair := range strings.Split(s, ";") {
		if eq := strings.IndexByte(pair, '='); eq > 0 {
			out[pair[:eq]] = pair[eq+1:]
		}
	}
	return out
}

// fieldInt reads an integer field (0 when absent or malformed).
func fieldInt(fields map[string]string, key string) int {
	n, _ := strconv.Atoi(fields[key])
	return n
}

// fieldFloat reads a float field (0 when absent or malformed).
func fieldFloat(fields map[string]string, key string) float64 {
	f, _ := strconv.ParseFloat(fields[key], 64)
	return f
}

// NURand is the TPC-C non-uniform random function NURand(A, x, y).
func NURand(r *sim.RNG, a, x, y int) int {
	c := 123 // constant; fixed run-to-run is permitted for reproduction
	return (((r.Intn(a+1) | (x + r.Intn(y-x+1))) + c) % (y - x + 1)) + x
}
