package transport

// Codec turns request/response values into payload bytes and back. There
// is one wire codec, installed with SetCodec by the package that defines
// it (the federation package installs dits-bin/1 from init); transport
// cannot name it itself, as the codec encodes the federation's messages.
// The hello magic fixes it (see tcp.go).
//
// Append appends the encoding of v to dst and returns the extended
// slice, so hot paths can reuse one buffer across calls without
// allocating; encoding nil appends nothing (the empty body). Decode
// unmarshals a payload into v; decoding into nil discards the payload.
// Implementations must be safe for concurrent use.
type Codec interface {
	Append(dst []byte, v any) ([]byte, error)
	Decode(data []byte, v any) error
}

var wireCodec Codec

// SetCodec installs the wire codec every TCP connection speaks and every
// InProc peer without its own Codec uses. It is called once, at init;
// a second call panics.
func SetCodec(c Codec) {
	if wireCodec != nil {
		panic("transport: wire codec installed twice")
	}
	wireCodec = c
}

// theCodec returns the installed wire codec.
func theCodec() Codec {
	if wireCodec == nil {
		panic("transport: no wire codec installed (the federation package installs it)")
	}
	return wireCodec
}
