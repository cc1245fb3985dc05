package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"github.com/sljmotion/sljmotion/internal/events"
)

// listener is one in-process HTTP server on a loopback port.
type listener struct {
	url string
	hs  *http.Server
	ln  net.Listener
}

// listen opens a loopback port; serve starts answering on it. They are
// separate so a front end can learn its own URL before it is built.
func listen() (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &listener{url: "http://" + ln.Addr().String(), ln: ln}, nil
}

func (l *listener) serve(h http.Handler) {
	l.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = l.hs.Serve(l.ln) }()
}

// close stops the server and waits for its handlers (SSE streams end when
// their job is terminal, so shutdown does not wait long).
func (l *listener) close() {
	if l.hs == nil {
		_ = l.ln.Close()
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.hs.Shutdown(ctx); err != nil {
		_ = l.hs.Close()
	}
}

// newClient is the load generator's HTTP client: at most conns
// connections to each host, kept alive across ops.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// submitted is the answer to one job submission.
type submitted struct {
	code int
	id   string
	raw  []byte // the document of a 200 answer
}

// post sends one request body and reads the whole answer.
func post(ctx context.Context, cl *http.Client, url, ctype string, body []byte) (submitted, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return submitted{}, err
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := cl.Do(req)
	if err != nil {
		return submitted{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return submitted{}, err
	}
	out := submitted{code: resp.StatusCode, raw: raw}
	if resp.StatusCode == http.StatusAccepted {
		var doc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil || doc.ID == "" {
			return out, fmt.Errorf("malformed submit document: %.200s", raw)
		}
		out.id = doc.ID
	}
	return out, nil
}

// awaitTerminal follows a job's SSE stream until its terminal frame and
// returns that event and when it arrived. The stream pushes every frame;
// nothing here polls.
func awaitTerminal(ctx context.Context, cl *http.Client, base, id string) (events.Event, time.Time, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return events.Event{}, time.Time{}, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return events.Event{}, time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return events.Event{}, time.Time{}, fmt.Errorf("event stream: %d %.200s", resp.StatusCode, raw)
	}
	fr := events.NewFrameReader(resp.Body)
	for {
		f, err := fr.Next()
		if err != nil {
			return events.Event{}, time.Time{}, fmt.Errorf("event stream ended before a terminal frame: %w", err)
		}
		at := time.Now()
		ev, err := f.DecodeEvent()
		if err != nil {
			return events.Event{}, time.Time{}, err
		}
		if ev.Terminal() {
			// Drain to the end of the stream so the connection is reused.
			_, _ = io.Copy(io.Discard, resp.Body)
			return ev, at, nil
		}
	}
}

// getJSON fetches one JSON document into v.
func getJSON(ctx context.Context, cl *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// docDigest hashes a result document after dropping stage_ms, its one
// volatile field. Keys are hashed in sorted order and values compacted, so
// the digest does not depend on the document's whitespace (the SSE frame
// embeds it compact, the synchronous route indents it).
func docDigest(raw []byte) ([32]byte, error) {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		return [32]byte{}, fmt.Errorf("result document: %w", err)
	}
	delete(doc, "stage_ms")
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	var buf bytes.Buffer
	for _, k := range keys {
		buf.Reset()
		if err := json.Compact(&buf, doc[k]); err != nil {
			return [32]byte{}, fmt.Errorf("result document field %s: %w", k, err)
		}
		fmt.Fprintf(h, "%q:", k)
		h.Write(buf.Bytes())
		h.Write([]byte{'\n'})
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out, nil
}

// referenceDoc answers one request on a handler in-process, without a
// network hop, and returns the digest of its document.
func referenceDoc(h http.Handler, path, ctype string, body []byte) ([32]byte, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", ctype)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return [32]byte{}, fmt.Errorf("reference %s: %d %.200s", path, rec.Code, rec.Body.Bytes())
	}
	return docDigest(rec.Body.Bytes())
}
