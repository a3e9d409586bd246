package msg

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"testing"
)

// allocSlack is the fixed allocation a frame read or write may add on
// top of its payload-proportional budget: decoded structs, the
// net.Buffers list, error values and the segment list of a large frame.
const allocSlack = 8 << 10

// allocated reports the bytes f allocates, cumulative over its run.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// frameWord frames payload the way the single-buffer writers always did:
// length word, the ID when hasID, then the payload.
func frameWord(payload []byte, id uint64, hasID bool) []byte {
	word := uint32(len(payload))
	if hasID {
		word |= FrameIDBit
	}
	b := binary.BigEndian.AppendUint32(nil, word)
	if hasID {
		b = binary.BigEndian.AppendUint64(b, id)
	}
	return append(b, payload...)
}

// TestLyingPrefixAllocationBound pins the lying-prefix bound by number:
// a frame declaring MaxFrame but backed by only a few bytes allocates no
// more than the bytes that arrived plus one readChunk segment, in both
// framings and through both readers. The segment pool is emptied first so
// every segment the read takes is a fresh allocation.
func TestLyingPrefixAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	readers := map[string]func(io.Reader) error{
		"request": func(r io.Reader) error {
			_, _, _, err := ReadRequestID(r)
			return err
		},
		"response": func(r io.Reader) error {
			_, _, _, err := ReadResponseID(r)
			return err
		},
	}
	for name, read := range readers {
		for _, hasID := range []bool{false, true} {
			for _, sent := range []int{0, 10 << 10, 100 << 10} {
				word := uint32(MaxFrame)
				if hasID {
					word |= FrameIDBit
				}
				in := binary.BigEndian.AppendUint32(nil, word)
				if hasID {
					in = binary.BigEndian.AppendUint64(in, 42)
				}
				in = append(in, bytes.Repeat([]byte{0xA5}, sent)...)
				br := bufio.NewReader(bytes.NewReader(in))
				runtime.GC()
				runtime.GC() // twice: the first only moves pooled segments to the victim cache
				var err error
				got := allocated(func() { err = read(br) })
				if err == nil {
					t.Fatalf("%s hasID=%v sent=%d: lying frame accepted", name, hasID, sent)
				}
				if limit := uint64(sent + readChunk + allocSlack); got > limit {
					t.Errorf("%s hasID=%v sent=%d: allocated %d bytes, bound %d", name, hasID, sent, got, limit)
				}
			}
		}
	}
}

// splitSizes straddles every size the frame writer and reader treat
// differently: empty, the split threshold, the pooled-buffer boundary,
// a typical chunk and the largest payload.
var splitSizes = []int{0, 1, splitPayload - 1, splitPayload, readChunk - 1, readChunk, readChunk + 1, 1 << 20, MaxData}

// wireWriters are the writers frames meet in the system: a plain
// sequential writer, the serve loop's bufio.Writer, and a TCP connection,
// where large frames go out as one writev.
func wireWriters(t *testing.T) map[string]func(write func(io.Writer) error) []byte {
	return map[string]func(write func(io.Writer) error) []byte{
		"buffer": func(write func(io.Writer) error) []byte {
			var b bytes.Buffer
			if err := write(&b); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		},
		"bufio": func(write func(io.Writer) error) []byte {
			var b bytes.Buffer
			bw := bufio.NewWriter(&b)
			if err := write(bw); err != nil {
				t.Fatal(err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		},
		"tcp": func(write func(io.Writer) error) []byte {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			got := make(chan []byte, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					got <- nil
					return
				}
				defer conn.Close()
				b, _ := io.ReadAll(conn)
				got <- b
			}()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			if err := write(conn); err != nil {
				t.Fatal(err)
			}
			conn.Close()
			return <-got
		},
	}
}

// TestSplitWritesAreByteIdentical pins the wire format across the
// split/writev writer: every frame equals the single-buffer encoding
// (AppendRequest / AppendResponse behind the length word), at every
// payload size the writer treats differently, in both framings, through
// every kind of writer — and a response carrying its payload as
// Data + DataTail equals one carrying it whole.
func TestSplitWritesAreByteIdentical(t *testing.T) {
	writers := wireWriters(t)
	for _, n := range splitSizes {
		data := bytes.Repeat([]byte{byte(n), 0x5A, 0xC3}, n/3+1)[:n]
		req := &Request{Kind: KindStore, Flags: FlagTrace, Origin: 3, Hops: 1, Version: 9,
			Name: "split", Data: data, TraceID: 77, Path: []Hop{{PID: 3, Parent: NoParent, Action: HopForward}}}
		resp := &Response{OK: true, ServedBy: 4, Version: 9, Data: data,
			Path: []Hop{{PID: 4, Parent: 3, Action: HopServe}}}
		reqPayload, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		respPayload, err := AppendResponse(nil, resp)
		if err != nil {
			t.Fatal(err)
		}
		cut := min(n, 20)
		tailed := &Response{OK: true, ServedBy: 4, Version: 9, Data: data[:cut], DataTail: data[cut:],
			Path: resp.Path}
		for _, hasID := range []bool{false, true} {
			const id = 0x0102030405060708
			wantReq := frameWord(reqPayload, id, hasID)
			wantResp := frameWord(respPayload, id, hasID)
			for wname, capture := range writers {
				if n == MaxData && wname != "buffer" {
					continue // the 1 MiB case already drives bufio and writev past their buffers
				}
				gotReq := capture(func(w io.Writer) error {
					if hasID {
						return WriteRequestID(w, req, id)
					}
					return WriteRequest(w, req)
				})
				if !bytes.Equal(gotReq, wantReq) {
					t.Fatalf("request n=%d hasID=%v via %s: frame differs from single-buffer encoding", n, hasID, wname)
				}
				for rname, r := range map[string]*Response{"whole": resp, "tailed": tailed} {
					gotResp := capture(func(w io.Writer) error {
						if hasID {
							return WriteResponseID(w, r, id)
						}
						return WriteResponse(w, r)
					})
					if !bytes.Equal(gotResp, wantResp) {
						t.Fatalf("%s response n=%d hasID=%v via %s: frame differs from single-buffer encoding", rname, n, hasID, wname)
					}
				}
			}
		}
	}
}

// TestFetchRespHeaderPlusChunkIsIdentical pins the holder's copy-free
// answer: the FetchResp header followed by the chunk equals AppendFetchResp,
// a batch carrying them as Data + DataTail equals one carrying them whole,
// and a framed Response carrying them decodes to the chunk.
func TestFetchRespHeaderPlusChunkIsIdentical(t *testing.T) {
	for _, n := range []int{0, 1, 4096, 1 << 20, MaxChunkBytes} {
		chunk := bytes.Repeat([]byte{0x3C}, n)
		fr := &FetchResp{TotalSize: MaxFileSize, FileCRC: 7, ChunkCRC: crc32.ChecksumIEEE(chunk), Chunk: chunk}
		whole, err := AppendFetchResp(nil, fr)
		if err != nil {
			t.Fatal(err)
		}
		hdr, err := AppendFetchRespHeader(nil, fr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(hdr, chunk...), whole) {
			t.Fatalf("n=%d: header + chunk differs from AppendFetchResp", n)
		}
		if n <= 1<<20 {
			// A batched fetch answer carries the same bytes as a whole one.
			tailedBatch, err := AppendBatchResponses(nil, []*Response{{OK: true, Data: hdr, DataTail: chunk}})
			if err != nil {
				t.Fatal(err)
			}
			wholeBatch, err := AppendBatchResponses(nil, []*Response{{OK: true, Data: whole}})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tailedBatch, wholeBatch) {
				t.Fatalf("n=%d: batched header + chunk differs from the whole encoding", n)
			}
		}
		var b bytes.Buffer
		if err := WriteResponse(&b, &Response{OK: true, Data: hdr, DataTail: chunk}); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadResponse(&b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeFetchResp(resp.Data)
		if err != nil || !bytes.Equal(got.Chunk, chunk) || got.ChunkCRC != fr.ChunkCRC {
			t.Fatalf("n=%d: tailed fetch response did not decode back: %v", n, err)
		}
	}
	if _, err := AppendResponse(nil, &Response{Data: make([]byte, MaxData), DataTail: []byte{1}}); err != ErrFrameTooLarge {
		t.Fatalf("Data + DataTail over MaxData: err = %v, want ErrFrameTooLarge", err)
	}
}

// TestDecodedViewsOwnTheirFrames pins the view ownership rule: a large
// frame's Data (and a FetchResp chunk nested in it) is a view the decoded
// message alone owns, so reading the next frame off the same reader
// leaves it intact and appending to it reallocates; a small frame, read
// into a pooled buffer the next read reuses, decodes to copies.
func TestDecodedViewsOwnTheirFrames(t *testing.T) {
	chunkOf := func(fill byte, n int) []byte {
		c := bytes.Repeat([]byte{fill}, n)
		fr := &FetchResp{TotalSize: uint64(n), ChunkCRC: crc32.ChecksumIEEE(c), Chunk: c}
		b, err := AppendFetchResp(nil, fr)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, n := range []int{100, 1 << 20} {
		var wire bytes.Buffer
		for _, fill := range []byte{0x11, 0x22} {
			if err := WriteResponseID(&wire, &Response{OK: true, Data: chunkOf(fill, n)}, uint64(fill)); err != nil {
				t.Fatal(err)
			}
			if err := WriteRequestID(&wire, &Request{Kind: KindStore, Name: "v", Data: bytes.Repeat([]byte{fill}, n)}, uint64(fill)); err != nil {
				t.Fatal(err)
			}
		}
		br := bufio.NewReader(&wire)
		read := func() (*Response, *FetchResp, *Request) {
			resp, _, _, err := ReadResponseID(br)
			if err != nil {
				t.Fatal(err)
			}
			fr, err := DecodeFetchResp(resp.Data)
			if err != nil {
				t.Fatal(err)
			}
			req, _, _, err := ReadRequestID(br)
			if err != nil {
				t.Fatal(err)
			}
			return resp, fr, req
		}
		resp1, fr1, req1 := read()
		read()
		want := bytes.Repeat([]byte{0x11}, n)
		if !bytes.Equal(fr1.Chunk, want) || !bytes.Equal(req1.Data, want) {
			t.Fatalf("n=%d: first frame's bytes changed after the second read", n)
		}
		for name, d := range map[string][]byte{"response": resp1.Data, "request": req1.Data, "chunk": fr1.Chunk} {
			if cap(d) != len(d) {
				t.Fatalf("n=%d: %s Data cap %d > len %d: an append would overwrite frame bytes", n, name, cap(d), len(d))
			}
		}
		grown := append(req1.Data, 0xFF)
		if &grown[0] == &req1.Data[0] || !bytes.Equal(req1.Data, want) {
			t.Fatalf("n=%d: appending to a decoded Data wrote in place", n)
		}
	}
}

// TestFrameAllocationBudget catches a reintroduced copy: reading a 1 MiB
// frame allocates one frame-sized buffer (plus a small constant), and
// writing one allocates nothing proportional to the payload.
func TestFrameAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	const n = 1 << 20
	data := bytes.Repeat([]byte{0x7E}, n)
	req := &Request{Kind: KindStore, Name: "budget", Data: data}
	resp := &Response{OK: true, Data: data[:20], DataTail: data[20:]}
	var reqFrame, respFrame bytes.Buffer
	if err := WriteRequestID(&reqFrame, req, 1); err != nil {
		t.Fatal(err)
	}
	if err := WriteResponseID(&respFrame, resp, 1); err != nil {
		t.Fatal(err)
	}
	const rounds = 8
	measure := func(op func()) uint64 {
		op() // warm the buffer and segment pools
		return allocated(func() {
			for i := 0; i < rounds; i++ {
				op()
			}
		}) / rounds
	}
	readBudget := uint64(n + n/10)
	if got := measure(func() {
		if _, _, _, err := ReadRequestID(bytes.NewReader(reqFrame.Bytes())); err != nil {
			t.Fatal(err)
		}
	}); got > readBudget {
		t.Errorf("reading a 1 MiB request allocated %d bytes, budget %d", got, readBudget)
	}
	if got := measure(func() {
		if _, _, _, err := ReadResponseID(bytes.NewReader(respFrame.Bytes())); err != nil {
			t.Fatal(err)
		}
	}); got > readBudget {
		t.Errorf("reading a 1 MiB response allocated %d bytes, budget %d", got, readBudget)
	}
	const writeBudget = 64 << 10
	if got := measure(func() {
		if err := WriteRequestID(io.Discard, req, 1); err != nil {
			t.Fatal(err)
		}
	}); got >= writeBudget {
		t.Errorf("writing a 1 MiB request allocated %d bytes, budget %d", got, writeBudget)
	}
	if got := measure(func() {
		if err := WriteResponseID(io.Discard, resp, 1); err != nil {
			t.Fatal(err)
		}
	}); got >= writeBudget {
		t.Errorf("writing a 1 MiB response allocated %d bytes, budget %d", got, writeBudget)
	}
}
