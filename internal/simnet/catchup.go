package simnet

// Catch-up state transfer: a restarted decision-log node that recovered
// its WAL but still misses part of the committed prefix fetches the gap
// from a peer. The request/response pair travels as ordinary wire frames
// (kindCatchupReq/kindCatchupResp in internal/wire), served by the TCP
// cluster's dedicated catch-up listener; in-process peers call the
// serving engine directly. Records are opaque encoded bytes
// (internal/store's record encoding): the transfer layer moves the
// committed prefix without knowing its schema.

// CatchupReq asks a peer for its committed records starting at From.
type CatchupReq struct {
	// From is the first missing sequence number (the requester's
	// recovered frontier).
	From uint64
	// Max bounds the records per response chunk (0: the server picks).
	Max uint32
}

// WireSize returns the encoded payload size.
func (m CatchupReq) WireSize() int { return 12 }

// Kind implements Message.
func (m CatchupReq) Kind() string { return "catchup-req" }

// CatchupResp carries one chunk of encoded committed records, in
// sequence order. An empty chunk terminates the transfer.
type CatchupResp struct {
	Records [][]byte
}

// WireSize returns the encoded payload size: count u32 + per-record
// length prefixes and bytes.
func (m CatchupResp) WireSize() int {
	size := 4
	for _, r := range m.Records {
		size += 4 + len(r)
	}
	return size
}

// Kind implements Message.
func (m CatchupResp) Kind() string { return "catchup-resp" }

// CatchupHandler serves one catch-up request chunk: encoded committed
// records [from, from+max), empty when the server holds nothing past
// from. Handlers must be safe for concurrent use.
type CatchupHandler func(from uint64, max int) [][]byte
