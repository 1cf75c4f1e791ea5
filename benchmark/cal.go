package main

import (
	"runtime"
	"slices"
	"time"
)

// calRefMS is the time the reference kernel takes on the reference-
// speed host. Every timed sample is scaled by calRefMS over the
// kernel's time measured right beside it, so a calibrated number reads
// as "time on a host where the kernel takes 5 ms", whatever the
// neighbours on this machine were doing during the sample.
const calRefMS = 5.000

// The kernel's four parts, sized to about 2 + 1 + 1 + 1 ms on the
// reference host.
const (
	calN        = 256     // mat-mul operand side
	calRows     = 50      // rows of the product computed per run
	calSortLen  = 13800   // float64s copied and sorted per run
	calMapKeys  = 1 << 16 // entries of the probed map (~2 MB)
	calMapReads = 45000   // lookups per run
	calTable    = 1 << 16 // uint32s of the branch table (256 KB)
	calBranches = 432000  // data-dependent three-way branches per run
)

// calibrator owns the reference kernel's operands and the history of
// its timings. The kernel imports no repo package and allocates
// nothing, so its time depends neither on the code under test nor on
// the heap or collector state of the process. It is a blend, by time,
// of 2/5 dense float64 mat-mul, 1/5 sorting, 1/5 hash-map lookups and
// 1/5 table-driven branching, chosen by measurement: on the machine
// this was written on, fifteen minutes of solves, sweeps, sampled
// validations and realize batches were timed with candidate kernels
// beside each, while neighbours moved the raw 20 s block medians by
// 22–33 %. How much a kernel slows when the host does (its elasticity
// against the measured code) decides everything: mat-mul alone slows
// more than any measured operation (slopes 0.6–0.8, dividing by it
// over-corrects), sorting and branching less (slopes 1.5–3.5), an 8 MB
// stream or a 16 MB pointer chase swing with the neighbours' cache
// traffic and made every number worse than no calibration. This blend
// has slope 1.04 / 0.94 / 0.87 / 0.88 against solve / sweep / sampled /
// realize and brought their block-median spread to 7.6 / 4.4 / 4.8 /
// 6.9 %.
type calibrator struct {
	a, b, c  []float64
	src, dst []float64
	m        map[int]int
	table    []uint32
	sink     float64
	ms       []float64 // every kernel timing of the run, for host.cal_ms_*
}

// lcg is the kernel's fixed pseudo-random stream.
func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

func newCalibrator() *calibrator {
	k := &calibrator{
		a:     make([]float64, calN*calN),
		b:     make([]float64, calN*calN),
		c:     make([]float64, calRows*calN),
		src:   make([]float64, calSortLen),
		dst:   make([]float64, calSortLen),
		m:     make(map[int]int, calMapKeys),
		table: make([]uint32, calTable),
	}
	for i := range k.a {
		k.a[i] = float64(i%17) * 0.25
		k.b[i] = float64(i%13) * 0.5
	}
	x := uint64(12345)
	for i := range k.src {
		x = lcg(x)
		k.src[i] = float64(x>>11) / (1 << 53)
	}
	for i := 0; i < calMapKeys; i++ {
		k.m[i*7919] = i
	}
	for i := range k.table {
		x = lcg(x)
		k.table[i] = uint32(x >> 32)
	}
	return k
}

// run executes the kernel once and returns its time in milliseconds.
func (k *calibrator) run() float64 {
	start := time.Now()

	n := calN
	for i := 0; i < calRows; i++ {
		row := k.c[i*n : (i+1)*n]
		for j := range row {
			row[j] = 0
		}
		for p := 0; p < n; p++ {
			aip := k.a[i*n+p]
			bp := k.b[p*n : (p+1)*n]
			for j, bv := range bp {
				row[j] += aip * bv
			}
		}
	}
	k.sink += k.c[len(k.c)-1]

	copy(k.dst, k.src)
	slices.Sort(k.dst)
	k.sink += k.dst[7]

	sum, x := 0, uint64(99)
	for i := 0; i < calMapReads; i++ {
		x = lcg(x)
		sum += k.m[int(x>>48)*7919]
	}
	k.sink += float64(sum)

	var acc uint32
	idx := uint32(1)
	for i := 0; i < calBranches; i++ {
		v := k.table[idx%calTable]
		switch {
		case v&1 == 0:
			acc += v >> 3
			idx = idx*5 + v
		case v&2 == 0:
			acc ^= v
			idx += v >> 7
		default:
			acc -= v & 0xff
			idx ^= v >> 5
		}
	}
	k.sink += float64(acc)

	ms := float64(time.Since(start)) / float64(time.Millisecond)
	k.ms = append(k.ms, ms)
	return ms
}

// sample times one run of op with the kernel immediately before and
// after it. op reports the duration it wants accounted (usually its
// own wall clock; the fleet replan reports request → last replica
// swap). Both the calibrated and the raw value are in milliseconds.
func (k *calibrator) sample(op func() time.Duration) (cal, raw float64) {
	before := k.run()
	d := op()
	after := k.run()
	raw = float64(d) / float64(time.Millisecond)
	return calibrate(raw, before, after), raw
}

// calibrate scales a raw timing to the reference host.
func calibrate(raw, calBefore, calAfter float64) float64 {
	return raw * calRefMS / ((calBefore + calAfter) / 2)
}

// gcThenSample collects garbage outside the timed region first, so
// that a multi-hundred-millisecond sample starts from the same heap
// state every time.
func (k *calibrator) gcThenSample(op func() time.Duration) (cal, raw float64) {
	runtime.GC()
	return k.sample(op)
}

// wall adapts a plain function to sample's signature.
func wall(f func()) func() time.Duration {
	return func() time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
}
