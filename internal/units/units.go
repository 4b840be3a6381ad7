// Package units provides the physical quantities used throughout the INRPP
// simulators: bit rates, byte sizes and the conversions between them.
//
// Quantities are small value types with parsing and formatting helpers so
// that configuration, logs and experiment tables all speak the same
// vocabulary ("40Gbps", "10GB", ...). Decimal prefixes follow networking
// convention (1 kb = 1000 b); binary prefixes (KiB, MiB, ...) are provided
// for memory-flavoured sizes.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// BitRate is a transmission rate in bits per second.
type BitRate float64

// Bit-rate constants with decimal prefixes, networking style.
const (
	BitPerSecond BitRate = 1
	Kbps                 = 1e3 * BitPerSecond
	Mbps                 = 1e6 * BitPerSecond
	Gbps                 = 1e9 * BitPerSecond
	Tbps                 = 1e12 * BitPerSecond
)

// TransmissionTime returns the time needed to serialise size onto a link of
// this rate. It returns a very large duration for a zero or negative rate so
// callers need not special-case dead links.
func (r BitRate) TransmissionTime(size ByteSize) time.Duration {
	if r <= 0 {
		return time.Duration(math.MaxInt64)
	}
	seconds := size.Bits() / float64(r)
	return secondsToDuration(seconds)
}

// String formats the rate with the largest prefix that keeps the mantissa
// at or above one, e.g. "2.5Mbps".
func (r BitRate) String() string {
	abs := math.Abs(float64(r))
	switch {
	case abs >= float64(Tbps):
		return trimFloat(float64(r)/float64(Tbps)) + "Tbps"
	case abs >= float64(Gbps):
		return trimFloat(float64(r)/float64(Gbps)) + "Gbps"
	case abs >= float64(Mbps):
		return trimFloat(float64(r)/float64(Mbps)) + "Mbps"
	case abs >= float64(Kbps):
		return trimFloat(float64(r)/float64(Kbps)) + "Kbps"
	default:
		return trimFloat(float64(r)) + "bps"
	}
}

// ParseBitRate parses strings such as "10Gbps", "2.5 Mbps", "800kbps" or a
// bare number of bits per second.
func ParseBitRate(s string) (BitRate, error) {
	value, unit, err := splitQuantity(s)
	if err != nil {
		return 0, fmt.Errorf("parse bit rate %q: %w", s, err)
	}
	switch strings.ToLower(unit) {
	case "", "bps", "b/s":
		return BitRate(value), nil
	case "kbps", "kb/s":
		return BitRate(value) * Kbps, nil
	case "mbps", "mb/s":
		return BitRate(value) * Mbps, nil
	case "gbps", "gb/s":
		return BitRate(value) * Gbps, nil
	case "tbps", "tb/s":
		return BitRate(value) * Tbps, nil
	default:
		return 0, fmt.Errorf("parse bit rate %q: unknown unit %q", s, unit)
	}
}

// ByteSize is an amount of data in bytes.
type ByteSize int64

// Byte-size constants. Decimal prefixes (KB, MB, ...) follow the SI
// convention used for link and cache capacities in the paper; binary
// prefixes (KiB, ...) are included for memory-oriented accounting.
const (
	Byte ByteSize = 1
	KB            = 1000 * Byte
	MB            = 1000 * KB
	GB            = 1000 * MB
	TB            = 1000 * GB

	KiB = 1024 * Byte
	MiB = 1024 * KiB
	GiB = 1024 * MiB
	TiB = 1024 * GiB
)

// Bits returns the size expressed in bits.
func (s ByteSize) Bits() float64 { return float64(s) * 8 }

// String formats the size with the largest decimal prefix that keeps the
// mantissa at or above one, e.g. "10GB".
func (s ByteSize) String() string {
	abs := s
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= TB:
		return trimFloat(float64(s)/float64(TB)) + "TB"
	case abs >= GB:
		return trimFloat(float64(s)/float64(GB)) + "GB"
	case abs >= MB:
		return trimFloat(float64(s)/float64(MB)) + "MB"
	case abs >= KB:
		return trimFloat(float64(s)/float64(KB)) + "KB"
	default:
		return strconv.FormatInt(int64(s), 10) + "B"
	}
}

// ParseByteSize parses strings such as "10GB", "64KiB", "1.5 MB" or a bare
// number of bytes. Fractional quantities are rounded to the nearest byte.
func ParseByteSize(s string) (ByteSize, error) {
	value, unit, err := splitQuantity(s)
	if err != nil {
		return 0, fmt.Errorf("parse byte size %q: %w", s, err)
	}
	mult := float64(Byte)
	switch strings.ToLower(unit) {
	case "", "b":
	case "kb":
		mult = float64(KB)
	case "mb":
		mult = float64(MB)
	case "gb":
		mult = float64(GB)
	case "tb":
		mult = float64(TB)
	case "kib":
		mult = float64(KiB)
	case "mib":
		mult = float64(MiB)
	case "gib":
		mult = float64(GiB)
	case "tib":
		mult = float64(TiB)
	default:
		return 0, fmt.Errorf("parse byte size %q: unknown unit %q", s, unit)
	}
	return ByteSize(math.Round(value * mult)), nil
}

// Per returns the average rate at which size is moved over duration d.
// A non-positive duration yields a zero rate.
func Per(size ByteSize, d time.Duration) BitRate {
	if d <= 0 {
		return 0
	}
	return BitRate(size.Bits() / d.Seconds())
}

// BytesIn returns how many whole bytes a link of rate r can carry in d.
func BytesIn(r BitRate, d time.Duration) ByteSize {
	if d <= 0 || r <= 0 {
		return 0
	}
	return ByteSize(float64(r) * d.Seconds() / 8)
}

// secondsToDuration converts a float second count to a time.Duration,
// saturating instead of overflowing.
func secondsToDuration(seconds float64) time.Duration {
	if seconds >= float64(math.MaxInt64)/float64(time.Second) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(seconds * float64(time.Second))
}

// splitQuantity separates a numeric prefix from its trailing unit.
func splitQuantity(s string) (value float64, unit string, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, "", fmt.Errorf("empty quantity")
	}
	cut := len(s)
	for i, r := range s {
		if (r >= '0' && r <= '9') || r == '.' || r == '-' || r == '+' || r == 'e' || r == 'E' {
			continue
		}
		// Allow an exponent sign only right after e/E; anything else ends
		// the numeric prefix.
		cut = i
		break
	}
	numPart := strings.TrimSpace(s[:cut])
	unit = strings.TrimSpace(s[cut:])
	value, err = strconv.ParseFloat(numPart, 64)
	if err != nil {
		return 0, "", fmt.Errorf("invalid number %q", numPart)
	}
	return value, unit, nil
}

// trimFloat formats a float with up to three decimals, trimming trailing
// zeros so common values print compactly ("2.5", "40").
func trimFloat(f float64) string {
	s := strconv.FormatFloat(f, 'f', 3, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}
