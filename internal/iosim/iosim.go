// Package iosim models the parallel-file-system and data-staging costs of
// the paper's Table IV end-to-end experiment: 64 ranks each compressing a
// local subdomain and writing N-to-N to a Lustre-like store, optionally
// shipping data to a staging node that compresses and writes asynchronously
// (the burst-buffer paradigm of Cori/Summit).
//
// Times come from a calibrated analytic model fed with *measured*
// compression throughputs and ratios, not wall-clock storage runs: the
// experiment's point is the ordering and crossover between "compression
// cost" and "I/O savings", which the model reproduces for any parameter
// choice.
package iosim

import (
	"context"
	"fmt"
	"time"

	"lrm/internal/core"
	"lrm/internal/grid"
)

// Config describes the platform.
type Config struct {
	// Ranks is the number of writers (the paper uses 64).
	Ranks int
	// BytesPerRank is each rank's raw output size.
	BytesPerRank float64
	// PerRankBandwidth is one writer's uncontended bandwidth (B/s).
	PerRankBandwidth float64
	// AggregateBandwidth is the file system's total bandwidth (B/s);
	// N-to-N writers share it.
	AggregateBandwidth float64
	// StagingBandwidth is the application-to-staging-node link bandwidth
	// per rank (B/s); staging-side compression and I/O are asynchronous
	// and do not block the application.
	StagingBandwidth float64
}

// TitanLike returns parameters shaped after the paper's Titan/Lustre setup,
// scaled so the baseline lands in tens of seconds like Table IV.
func TitanLike() Config {
	return Config{
		Ranks:              64,
		BytesPerRank:       16.7e9 / 64, // the paper's 16.7 GB split over ranks
		PerRankBandwidth:   300e6,
		AggregateBandwidth: 2e9, // contended Lustre: ~31 MB/s per writer
		StagingBandwidth:   1.5e9,
	}
}

// Method is one Table IV row: a compression strategy with its measured
// performance.
type Method struct {
	// Name labels the row ("Baseline", "ZFP+I/O", "Staging+PCA+I/O", ...).
	Name string
	// Throughput is the measured compression speed in bytes/s of raw
	// input; 0 means no compression (the baseline).
	Throughput float64
	// Ratio is the measured compression ratio (1 for no compression).
	Ratio float64
	// Staged routes data through the staging node: the application only
	// pays the transfer, everything downstream is asynchronous.
	Staged bool
}

// Entry is one computed row of Table IV.
type Entry struct {
	Method       string
	CompressTime float64 // seconds, 0 when not applicable
	IOTime       float64 // seconds
	TotalTime    float64 // seconds
}

// effectiveBandwidth is each N-to-N writer's share of the file system.
func (c Config) effectiveBandwidth() float64 {
	per := c.PerRankBandwidth
	if share := c.AggregateBandwidth / float64(c.Ranks); share < per {
		per = share
	}
	return per
}

// EndToEnd computes Table IV for a set of methods.
func EndToEnd(cfg Config, methods []Method) ([]Entry, error) {
	if cfg.Ranks < 1 || cfg.BytesPerRank <= 0 ||
		cfg.PerRankBandwidth <= 0 || cfg.AggregateBandwidth <= 0 {
		return nil, fmt.Errorf("iosim: invalid config %+v", cfg)
	}
	bw := cfg.effectiveBandwidth()
	var out []Entry
	for _, m := range methods {
		e := Entry{Method: m.Name}
		switch {
		case m.Staged:
			if cfg.StagingBandwidth <= 0 {
				return nil, fmt.Errorf("iosim: method %q needs StagingBandwidth", m.Name)
			}
			// The application only pays for shipping raw bytes to the
			// staging node; compression and storage proceed off-path.
			e.IOTime = cfg.BytesPerRank / cfg.StagingBandwidth
			e.TotalTime = e.IOTime

		case m.Throughput <= 0: // baseline, no compression
			e.IOTime = cfg.BytesPerRank / bw
			e.TotalTime = e.IOTime

		default:
			if m.Ratio <= 0 {
				return nil, fmt.Errorf("iosim: method %q has ratio %v", m.Name, m.Ratio)
			}
			e.CompressTime = cfg.BytesPerRank / m.Throughput
			e.IOTime = cfg.BytesPerRank / m.Ratio / bw
			e.TotalTime = e.CompressTime + e.IOTime
		}
		out = append(out, e)
	}
	return out, nil
}

// MeasureMethod times core.Compress on a sample field and returns the
// resulting Method (throughput in raw bytes/s and achieved ratio). The
// sample should be representative of the per-rank subdomain.
func MeasureMethod(name string, f *grid.Field, opts core.Options, staged bool) (Method, error) {
	start := time.Now()
	res, err := core.CompressCtx(context.TODO(), f, opts)
	if err != nil {
		return Method{}, fmt.Errorf("iosim: measuring %q: %w", name, err)
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	return Method{
		Name:       name,
		Throughput: float64(res.OriginalBytes) / elapsed,
		Ratio:      res.Ratio(),
		Staged:     staged,
	}, nil
}

// Baseline returns the no-compression method row.
func Baseline() Method { return Method{Name: "Baseline (I/O with no compression)", Ratio: 1} }

// StagedMethod wraps a name into a staging row (measured throughput is
// irrelevant on the application's critical path).
func StagedMethod(name string) Method { return Method{Name: name, Staged: true, Ratio: 1} }
