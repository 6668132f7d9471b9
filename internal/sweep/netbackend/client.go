package netbackend

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/fatgather/fatgather/internal/sweep"
)

// DefaultRetryFor bounds how long the client retries transport failures and
// 5xx responses before giving up. It deliberately exceeds a realistic
// coordinator restart (crash, redeploy, failover) so a mid-sweep gatherd kill
// degrades to a pause, not a failed sweep: claims that time out anyway only
// cost duplicated bit-identical work, never divergent tables.
const DefaultRetryFor = 30 * time.Second

// retryBackoffBase is the first retry delay; it doubles per attempt up to
// retryBackoffCap.
const (
	retryBackoffBase = 50 * time.Millisecond
	retryBackoffCap  = time.Second
)

// Client is the sweep.Backend over a gatherd coordinator: record append and
// reload and cell-group leases all travel the /v1 HTTP API of one named
// store. Construct one per worker per store with NewClient and open
// it with sweep.OpenBackend.
//
// Connection errors and 5xx responses are retried with exponential backoff
// for up to RetryFor (the coordinator may be restarting); 4xx responses are
// returned immediately (the request itself is wrong).
type Client struct {
	base  string // coordinator base URL, no trailing slash
	store string
	hc    *http.Client
	// RetryFor overrides DefaultRetryFor when set before first use (chaos
	// tests shorten it; operators with slow failover may lengthen it).
	RetryFor time.Duration
}

// NewClient validates the coordinator URL and store name and returns a
// backend for that store. It performs no I/O: the first request finds out
// whether the coordinator is reachable (and retries while it is not).
func NewClient(coordinator, store string) (*Client, error) {
	base, err := coordinatorBase(coordinator)
	if err != nil {
		return nil, err
	}
	if err := CheckStoreName(store); err != nil {
		return nil, err
	}
	return &Client{
		base:     base,
		store:    store,
		hc:       &http.Client{Timeout: 30 * time.Second},
		RetryFor: DefaultRetryFor,
	}, nil
}

// coordinatorBase validates a coordinator URL and returns it without a
// trailing slash.
func coordinatorBase(coordinator string) (string, error) {
	u, err := url.Parse(coordinator)
	if err != nil {
		return "", fmt.Errorf("gatherd: bad coordinator URL %q: %w", coordinator, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("gatherd: coordinator URL must be http(s)://host[:port], got %q", coordinator)
	}
	return strings.TrimRight(u.String(), "/"), nil
}

// String returns the store's coordinator URL (shown in warnings and logs).
func (c *Client) String() string {
	return c.base + "/v1/stores/" + c.store
}

// Close releases idle connections. The coordinator's state is unaffected.
func (c *Client) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// do issues one request, retrying transport errors and 5xx responses with
// exponential backoff until RetryFor elapses. The caller owns the returned
// response body.
func (c *Client) do(method, path string, query url.Values, body []byte) (*http.Response, error) {
	reqURL := c.String() + path
	if len(query) > 0 {
		reqURL += "?" + query.Encode()
	}
	deadline := time.Now().Add(c.RetryFor)
	backoff := retryBackoffBase
	for {
		req, err := http.NewRequest(method, reqURL, bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("gatherd: %s %s: %w", method, path, err)
		}
		resp, err := c.hc.Do(req)
		if err == nil && resp.StatusCode < 500 {
			return resp, nil
		}
		var status string
		if err == nil {
			status = resp.Status
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
			resp.Body.Close()              //nolint:errcheck
		}
		if time.Now().After(deadline) {
			if err != nil {
				return nil, fmt.Errorf("gatherd: %s %s: %w", method, path, err)
			}
			return nil, fmt.Errorf("gatherd: %s %s: coordinator returned %s", method, path, status)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > retryBackoffCap {
			backoff = retryBackoffCap
		}
	}
}

// errFromResponse drains a non-2xx response into an error carrying the
// server's message.
func errFromResponse(method, path string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close() //nolint:errcheck
	return fmt.Errorf("gatherd: %s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(msg)))
}

// ReadRecords fetches the record log from off onward; the X-Gatherd-Start
// header carries the offset the bytes actually start at (0 after the
// coordinator replaced or lost its log — the store rescans).
func (c *Client) ReadRecords(off int64) ([]byte, int64, error) {
	q := url.Values{"off": {strconv.FormatInt(off, 10)}}
	resp, err := c.do(http.MethodGet, "/records", q, nil)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, errFromResponse("GET", "/records", resp)
	}
	start, err := strconv.ParseInt(resp.Header.Get("X-Gatherd-Start"), 10, 64)
	if err != nil {
		start = off
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	if err != nil {
		return nil, 0, fmt.Errorf("gatherd: GET /records: %w", err)
	}
	return data, start, nil
}

// AppendRecord streams one record line to the coordinator.
func (c *Client) AppendRecord(line []byte) error {
	return c.expectNoContent(http.MethodPost, "/records", line)
}

// RewriteRecords replaces the coordinator's record log.
func (c *Client) RewriteRecords(data []byte) error {
	return c.expectNoContent(http.MethodPut, "/records", data)
}

// expectNoContent issues a request whose success is 204.
func (c *Client) expectNoContent(method, path string, body []byte) error {
	resp, err := c.do(method, path, nil, body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusNoContent {
		return errFromResponse(method, path, resp)
	}
	resp.Body.Close() //nolint:errcheck
	return nil
}

// leaseCall posts a lease request and decodes the JSON reply into out.
func (c *Client) leaseCall(path, group, owner string, ttl time.Duration, out any) error {
	body, err := json.Marshal(leaseReq{Group: group, Owner: owner, TTLNanos: int64(ttl)})
	if err != nil {
		return fmt.Errorf("gatherd: encode lease request: %w", err)
	}
	resp, err := c.do(http.MethodPost, path, nil, body)
	if err != nil {
		return err
	}
	if out == nil {
		if resp.StatusCode != http.StatusNoContent {
			return errFromResponse("POST", path, resp)
		}
		resp.Body.Close() //nolint:errcheck
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		return errFromResponse("POST", path, resp)
	}
	err = json.NewDecoder(resp.Body).Decode(out)
	resp.Body.Close() //nolint:errcheck
	if err != nil {
		return fmt.Errorf("gatherd: POST %s: decode reply: %w", path, err)
	}
	return nil
}

// TryClaim arbitrates a cell-group claim through the coordinator.
func (c *Client) TryClaim(group, owner string, ttl time.Duration) (sweep.LeaseStatus, error) {
	var reply struct {
		Status string `json:"status"`
	}
	if err := c.leaseCall("/claim", group, owner, ttl, &reply); err != nil {
		return sweep.LeaseHeld, err
	}
	switch reply.Status {
	case "won":
		return sweep.LeaseWon, nil
	case "reclaimed":
		return sweep.LeaseReclaimed, nil
	case "held":
		return sweep.LeaseHeld, nil
	default:
		return sweep.LeaseHeld, fmt.Errorf("gatherd: POST /claim: unknown status %q", reply.Status)
	}
}

// RenewLease extends the owner's lease through the coordinator.
func (c *Client) RenewLease(group, owner string, ttl time.Duration) (bool, error) {
	var reply struct {
		Renewed bool `json:"renewed"`
	}
	if err := c.leaseCall("/renew", group, owner, ttl, &reply); err != nil {
		return false, err
	}
	return reply.Renewed, nil
}

// ReleaseLease drops the owner's lease through the coordinator.
func (c *Client) ReleaseLease(group, owner string) error {
	return c.leaseCall("/release", group, owner, 0, nil)
}

// Backend conformance is compile-checked here rather than discovered at the
// first OpenBackend call.
var _ sweep.Backend = (*Client)(nil)
