package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"

	"netalytics/internal/packet"
)

// placeholder marks the 8-digit request number inside a template payload.
// Templates are built once with the packet.Builder and internal/proto codecs;
// per request the generator copies a template and patches ports, digits, the
// DNS transaction ID and the L4 checksum, so building a frame costs a copy
// and a checksum instead of a full codec pass.
const placeholder = "00000000"

// template is one pre-built frame with the offsets the generator patches.
type template struct {
	raw    []byte
	udp    bool
	digits []int // offsets of every placeholder occurrence
	dnsID  int   // offset of the DNS transaction ID, or -1
}

const (
	l4Off      = packet.EthernetHeaderLen + packet.IPv4HeaderLen
	srcPortOff = l4Off
	dstPortOff = l4Off + 2
)

func tcpTemplate(src, dst netip.Addr, srcPort, dstPort uint16, payload []byte) *template {
	var b packet.Builder
	raw := b.TCP(packet.TCPSpec{
		Src: src, Dst: dst, SrcPort: srcPort, DstPort: dstPort,
		Flags: packet.TCPFlagPSH | packet.TCPFlagACK, Payload: payload,
	})
	return newTemplate(raw, false, -1)
}

func udpTemplate(src, dst netip.Addr, srcPort, dstPort uint16, payload []byte, dnsID bool) *template {
	var b packet.Builder
	raw := b.UDP(packet.UDPSpec{Src: src, Dst: dst, SrcPort: srcPort, DstPort: dstPort, Payload: payload})
	id := -1
	if dnsID {
		id = l4Off + packet.UDPHeaderLen
	}
	return newTemplate(raw, true, id)
}

func newTemplate(raw []byte, udp bool, dnsID int) *template {
	t := &template{raw: raw, udp: udp, dnsID: dnsID}
	for off := 0; ; {
		i := bytes.Index(raw[off:], []byte(placeholder))
		if i < 0 {
			break
		}
		t.digits = append(t.digits, off+i)
		off += i + len(placeholder)
	}
	return t
}

// arena hands out frame buffers carved from large chunks: one allocation per
// ~2k frames instead of one per frame. Frames are never reused (taps and
// monitors keep references), so a chunk is freed by the GC once every frame
// in it has been processed.
type arena struct{ buf []byte }

const arenaChunk = 256 << 10

func (a *arena) alloc(n int) []byte {
	if len(a.buf) < n {
		a.buf = make([]byte, arenaChunk)
	}
	b := a.buf[:n:n]
	a.buf = a.buf[n:]
	return b
}

// frame instantiates the template: srcPort/dstPort of 0 keep the template's
// value, num fills every placeholder, id patches the DNS transaction ID.
func (a *arena) frame(t *template, srcPort, dstPort uint16, num uint32, id uint16) []byte {
	raw := a.alloc(len(t.raw))
	copy(raw, t.raw)
	if srcPort != 0 {
		binary.BigEndian.PutUint16(raw[srcPortOff:], srcPort)
	}
	if dstPort != 0 {
		binary.BigEndian.PutUint16(raw[dstPortOff:], dstPort)
	}
	for _, off := range t.digits {
		putDigits(raw[off:off+len(placeholder)], num)
	}
	if t.dnsID >= 0 {
		binary.BigEndian.PutUint16(raw[t.dnsID:], id)
	}
	fixL4Checksum(raw, t.udp)
	return raw
}

// putDigits writes num as zero-padded decimal filling dst.
func putDigits(dst []byte, num uint32) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = byte('0' + num%10)
		num /= 10
	}
}

// parseDigits reads a zero-padded decimal number; ok is false on any
// non-digit byte.
func parseDigits(s string) (uint32, bool) {
	if len(s) == 0 {
		return 0, false
	}
	var n uint32
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint32(c-'0')
	}
	return n, true
}

// fixL4Checksum recomputes the TCP or UDP checksum over the IPv4
// pseudo-header and segment, allocation-free.
func fixL4Checksum(raw []byte, udp bool) {
	seg := raw[l4Off:]
	csOff := 16
	proto := packet.ProtoTCP
	if udp {
		csOff = 6
		proto = packet.ProtoUDP
	}
	seg[csOff], seg[csOff+1] = 0, 0
	ip := raw[packet.EthernetHeaderLen:]
	var sum uint32
	sum += uint32(binary.BigEndian.Uint16(ip[12:])) + uint32(binary.BigEndian.Uint16(ip[14:]))
	sum += uint32(binary.BigEndian.Uint16(ip[16:])) + uint32(binary.BigEndian.Uint16(ip[18:]))
	sum += uint32(proto) + uint32(len(seg))
	for i := 0; i+1 < len(seg); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(seg[i:]))
	}
	if len(seg)%2 == 1 {
		sum += uint32(seg[len(seg)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	cs := ^uint16(sum)
	if cs == 0 && udp {
		cs = 0xffff
	}
	binary.BigEndian.PutUint16(seg[csOff:], cs)
}

// num8 renders a request number the way templates carry it.
func num8(n uint32) string { return fmt.Sprintf("%08d", n) }
