package tpcc

import (
	"fmt"
	"strconv"

	"met/internal/hbase"
)

// Loader populates a cluster with the TPC-C dataset through its
// data-plane surface; CreateTables takes the in-process master because
// table creation has no wire endpoint.
type Loader struct {
	Cfg    Config
	Client hbase.KV
}

// CreateTables creates the nine tables, pre-split by warehouse so each
// region server can own an integral number of warehouses (the paper runs
// 5 warehouses per region server on a 6-server cluster).
func (l *Loader) CreateTables(m *hbase.Master, warehousesPerRegion int) error {
	if err := l.Cfg.Validate(); err != nil {
		return err
	}
	if warehousesPerRegion < 1 {
		warehousesPerRegion = 1
	}
	var splits []string
	for w := warehousesPerRegion + 1; w <= l.Cfg.Warehouses; w += warehousesPerRegion {
		splits = append(splits, WarehousePrefix(w))
	}
	for _, t := range Tables {
		s := splits
		if t == TableItem {
			s = nil // items are not warehouse-scoped
		}
		if _, err := m.CreateTable(t, s); err != nil {
			return fmt.Errorf("tpcc: create %s: %w", t, err)
		}
	}
	return nil
}

// Load inserts the initial population. It returns the number of rows
// written.
func (l *Loader) Load() (int64, error) {
	if err := l.Cfg.Validate(); err != nil {
		return 0, err
	}
	var rows int64
	put := func(table, key string, fields map[string]string) error {
		rows++
		return l.Client.Put(table, key, encodeRow(fields, l.Cfg.ValueFiller))
	}
	// Items (global).
	for i := 1; i <= l.Cfg.Items; i++ {
		if err := put(TableItem, ItemKey(i), map[string]string{
			"I_ID":    strconv.Itoa(i),
			"I_NAME":  fmt.Sprintf("item-%d", i),
			"I_PRICE": "9.99",
		}); err != nil {
			return rows, err
		}
	}
	for w := 1; w <= l.Cfg.Warehouses; w++ {
		if err := put(TableWarehouse, WarehouseKey(w), map[string]string{
			"W_ID":   strconv.Itoa(w),
			"W_YTD":  "300000.00",
			"W_NAME": fmt.Sprintf("wh-%d", w),
			"W_TAX":  "0.07",
		}); err != nil {
			return rows, err
		}
		// Stock for every item at this warehouse.
		for i := 1; i <= l.Cfg.Items; i++ {
			if err := put(TableStock, StockKey(w, i), map[string]string{
				"S_QUANTITY":   "50",
				"S_YTD":        "0",
				"S_ORDER_CNT":  "0",
				"S_REMOTE_CNT": "0",
			}); err != nil {
				return rows, err
			}
		}
		for d := 1; d <= l.Cfg.DistrictsPerWH; d++ {
			nextOID := l.Cfg.InitialOrdersPerDist + 1
			if err := put(TableDistrict, DistrictKey(w, d), map[string]string{
				"D_ID":        strconv.Itoa(d),
				"D_W_ID":      strconv.Itoa(w),
				"D_YTD":       "30000.00",
				"D_TAX":       "0.05",
				"D_NEXT_O_ID": strconv.Itoa(nextOID),
			}); err != nil {
				return rows, err
			}
			for c := 1; c <= l.Cfg.CustomersPerDistrict; c++ {
				if err := put(TableCustomer, CustomerKey(w, d, c), map[string]string{
					"C_ID":           strconv.Itoa(c),
					"C_BALANCE":      "-10.00",
					"C_YTD_PAYMENT":  "10.00",
					"C_PAYMENT_CNT":  "1",
					"C_DELIVERY_CNT": "0",
					"C_LAST":         fmt.Sprintf("LAST%d", c%1000),
				}); err != nil {
					return rows, err
				}
			}
			// Initial orders with one line each (kept minimal; the
			// benchmark grows the order tables as it runs).
			for o := 1; o <= l.Cfg.InitialOrdersPerDist; o++ {
				cid := (o % l.Cfg.CustomersPerDistrict) + 1
				if err := put(TableOrder, OrderKey(w, d, o), map[string]string{
					"O_ID":         strconv.Itoa(o),
					"O_C_ID":       strconv.Itoa(cid),
					"O_OL_CNT":     "1",
					"O_CARRIER_ID": "0",
				}); err != nil {
					return rows, err
				}
				if err := put(TableOrderLine, OrderLineKey(w, d, o, 1), map[string]string{
					"OL_I_ID":     strconv.Itoa((o % l.Cfg.Items) + 1),
					"OL_AMOUNT":   "9.99",
					"OL_QUANTITY": "5",
				}); err != nil {
					return rows, err
				}
				// The last third of initial orders are undelivered.
				if o > l.Cfg.InitialOrdersPerDist*2/3 {
					if err := put(TableNewOrder, NewOrderKey(w, d, o), map[string]string{
						"NO_O_ID": strconv.Itoa(o),
					}); err != nil {
						return rows, err
					}
				}
			}
		}
	}
	return rows, nil
}
