package main

import (
	"bytes"
	"context"
	"io"
	"strconv"
	"time"

	"dialga/internal/gf"
	"dialga/internal/rs"
	"dialga/internal/stream"
)

// crcSink keeps the checksum calls from being optimised away.
var crcSink uint32

// microBudget is how long each isolated codec measurement runs.
const microBudget = 300 * time.Millisecond

// gatewayStreamOptions mirrors the options the gateway builds its
// pipelines with (RS(4,2), 1 MiB stripes, CRC-32C trailers, 30 ms
// hedge), minus the metrics registry.
func gatewayStreamOptions(code *rs.Code, seed uint64) stream.Options {
	return stream.Options{
		Codec:      code,
		StripeSize: stripeSize,
		Checksum:   stream.ChecksumCRC32C,
		HedgeAfter: hedgeAfter,
		Seed:       seed,
	}
}

// rate runs f until the budget is spent and returns MiB/s over the
// bytes f reports per call.
func rate(f func() (int, error)) (float64, int, error) {
	var total int64
	calls := 0
	start := time.Now()
	for time.Since(start) < microBudget || calls == 0 {
		n, err := f()
		if err != nil {
			return 0, calls, err
		}
		total += int64(n)
		calls++
	}
	return float64(total) / (1 << 20) / time.Since(start).Seconds(), calls, nil
}

// microCodec times isolated calls into stream, rs and gf on the
// workload's own payloads, with the gateway's options.
func microCodec(samples [][]byte, seed uint64) (metricSet, error) {
	m := metricSet{}
	code, err := rs.New(dataShards, parity)
	if err != nil {
		return nil, err
	}
	opts := gatewayStreamOptions(code, seed)
	ctx := context.Background()
	n := dataShards + parity
	record := func(name string, f func() (int, error)) error {
		v, calls, err := rate(f)
		if err != nil {
			return err
		}
		m.set(name, v, "MiB/s", strconv.Itoa(calls)+" calls")
		return nil
	}

	// Encoded shard streams of every sample, for the decoders.
	encoded := make([][][]byte, len(samples))
	for i, s := range samples {
		bufs := make([]bytes.Buffer, n)
		ws := make([]io.Writer, n)
		for j := range bufs {
			ws[j] = &bufs[j]
		}
		enc, err := stream.NewEncoder(opts)
		if err != nil {
			return nil, err
		}
		if err := enc.Encode(ctx, bytes.NewReader(s), ws); err != nil {
			return nil, err
		}
		encoded[i] = make([][]byte, n)
		for j := range bufs {
			encoded[i][j] = bufs[j].Bytes()
		}
	}
	discard := make([]io.Writer, n)
	for j := range discard {
		discard[j] = io.Discard
	}

	next := 0
	err = record("stream.encode_mibps", func() (int, error) {
		s := samples[next%len(samples)]
		next++
		enc, err := stream.NewEncoder(opts)
		if err != nil {
			return 0, err
		}
		return len(s), enc.Encode(ctx, bytes.NewReader(s), discard)
	})
	if err != nil {
		return nil, err
	}
	// The gateway opens k+1 shards on a healthy get; a degraded get
	// after losing two data shards reads the other four.
	decode := func(present func(j int) bool) func() (int, error) {
		return func() (int, error) {
			i := next % len(samples)
			next++
			readers := make([]io.Reader, n)
			for j := range readers {
				if present(j) {
					readers[j] = bytes.NewReader(encoded[i][j])
				}
			}
			dec, err := stream.NewDecoder(opts)
			if err != nil {
				return 0, err
			}
			return len(samples[i]), dec.Decode(ctx, readers, io.Discard, int64(len(samples[i])))
		}
	}
	if err := record("stream.decode_mibps", decode(func(j int) bool { return j <= dataShards })); err != nil {
		return nil, err
	}
	if err := record("stream.degraded_decode_mibps", decode(func(j int) bool { return j >= 2 })); err != nil {
		return nil, err
	}

	// One stripe of the first sample, split into k data blocks.
	shard := stripeSize / dataShards
	stripe := make([]byte, stripeSize)
	copy(stripe, samples[0])
	blocks := make([][]byte, n)
	for j := 0; j < dataShards; j++ {
		blocks[j] = stripe[j*shard : (j+1)*shard]
	}
	for j := dataShards; j < n; j++ {
		blocks[j] = make([]byte, shard)
	}
	sums := make([]uint32, n)
	err = record("rs.encode_sum_mibps", func() (int, error) {
		return stripeSize, code.EncodeSumInto(sums, blocks[:dataShards], blocks[dataShards:])
	})
	if err != nil {
		return nil, err
	}
	lost := [][]byte{make([]byte, 0, shard), make([]byte, 0, shard)}
	work := make([][]byte, n)
	err = record("rs.reconstruct_sum_mibps", func() (int, error) {
		copy(work, blocks)
		work[0], work[1] = lost[0][:0], lost[1][:0]
		return stripeSize, code.ReconstructSum(work, sums)
	})
	if err != nil {
		return nil, err
	}
	err = record("gf.crc32c_mibps", func() (int, error) {
		s := samples[next%len(samples)]
		next++
		crcSink = gf.CRC32C(s)
		return len(s), nil
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}
