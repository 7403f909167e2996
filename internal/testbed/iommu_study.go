package testbed

import (
	"fmt"

	"repro/internal/iommu"
)

// This file implements the IOMMU extension study motivated by §2.1 and
// §6: memory-protection hardware is a host congestion point of its own,
// and — crucially — one that hostCC's IIO occupancy signal cannot see,
// because DMA stalls in address translation *before* entering the IIO
// buffer. The study measures throughput, the IIO occupancy signal, and
// the candidate replacement signal (IOTLB miss rate) across IOTLB sizes.

// IOMMURow is one cell of the IOMMU study.
type IOMMURow struct {
	// IOTLBEntries is the translation cache size; 0 = IOMMU disabled.
	IOTLBEntries int
	// MissRate is the IOTLB miss rate (the §6 candidate signal).
	MissRate float64
	// WalkTimeFrac is the fraction of the measurement window spent
	// walking page tables.
	M Metrics
}

func (r IOMMURow) String() string {
	label := fmt.Sprintf("iotlb=%d", r.IOTLBEntries)
	if r.IOTLBEntries == 0 {
		label = "iommu=off"
	}
	return fmt.Sprintf("%-12s tput=%6.1fG drop=%8.4f%% IS=%5.1f BS=%6.1fG missRate=%.2f",
		label, r.M.ThroughputGbps, r.M.DropRatePct, r.M.AvgIS, r.M.AvgBSGbps, r.MissRate)
}

// RunIOMMUStudy measures the IOMMU-induced host congestion blind spot: an
// undersized IOTLB degrades throughput while the IIO occupancy signal
// stays low (so stock hostCC would not react), and the IOTLB miss rate
// identifies the bottleneck instead. No MApp runs: the congestion here is
// purely translation-induced.
func RunIOMMUStudy(s Scale) []IOMMURow {
	var rows []IOMMURow
	for _, entries := range []int{0, 32, 128, 1024} {
		opts := s.throughputOpts()
		tb := NewWithIOMMU(opts, entries)
		tb.StartNetAppT()
		m := tb.RunWindow()
		row := IOMMURow{IOTLBEntries: entries, M: m}
		if u := tb.Receiver.IOMMU; u != nil {
			row.MissRate = u.MissRate()
		}
		rows = append(rows, row)
	}
	return rows
}

// NewWithIOMMU builds a testbed whose receiver has an IOMMU with the
// given IOTLB size (0 disables translation).
func NewWithIOMMU(opts Config, iotlbEntries int) *Testbed {
	if iotlbEntries <= 0 {
		return New(opts)
	}
	cfg := iommu.DefaultConfig()
	cfg.IOTLBEntries = iotlbEntries
	opts.iommu = &cfg
	return New(opts)
}
