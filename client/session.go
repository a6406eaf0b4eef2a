package client

import (
	"context"

	"ode/internal/wire"
)

// Session is a remote O++ shell session: it pins one connection so the
// server-side interpreter state (declared classes, the ambient
// transaction opened by `begin`) persists across Exec calls. This is
// what ode-sh -connect speaks.
type Session struct {
	c    *Client
	cn   *wconn
	done bool
}

// Session pins a connection for remote O++ execution. Close tears the
// connection down (the server aborts any ambient transaction and
// discards the interpreter state when the socket drops).
func (c *Client) Session(ctx context.Context) (*Session, error) {
	cn, err := c.get()
	if err != nil {
		return nil, err
	}
	// Verify the pin with a ping so a shed connection fails here, not
	// mid-script.
	resp, err := cn.roundTrip(ctx, wire.CmdPing, nil)
	if err == nil {
		err = respErrOnly(resp)
	}
	if err != nil {
		c.put(cn)
		return nil, err
	}
	return &Session{c: c, cn: cn}, nil
}

// Exec runs O++ source on the server and returns its printed output.
// A statement error arrives as the error; output printed before the
// failure is still returned.
func (s *Session) Exec(ctx context.Context, src string) (string, error) {
	if s.done {
		return "", ErrClosed
	}
	cn := s.cn
	id := cn.newID()
	if err := cn.post(ctx, wire.AppendFrame(nil, &wire.Frame{ReqID: id, Type: wire.CmdOQL, Body: wire.AppendString(nil, src)})); err != nil {
		return "", err
	}
	var out string
	var execErr error
	err := cn.await(func() error {
		for {
			f, err := cn.recv(id)
			if err != nil {
				return err
			}
			switch f.Type {
			case wire.RespText:
				d := wire.NewDec(f.Body)
				out = d.String()
				if err := d.Err(); err != nil {
					cn.broken = true
					return err
				}
			case wire.RespOK:
				return nil
			case wire.RespErr:
				execErr = wire.DecodeErrBody(f.Body)
				return nil
			default:
				cn.broken = true
				return protoErr("oql: unexpected response 0x%02x", f.Type)
			}
		}
	})
	if err != nil {
		return out, err
	}
	return out, execErr
}

// Close tears down the pinned connection. The connection is never
// returned to the pool: the server-side interpreter state (declared
// classes, variables, an ambient transaction opened by `begin`) lives
// on it and is only discarded when the socket closes — pooling it
// would hand that state, and any locks the ambient transaction holds,
// to the connection's next owner.
func (s *Session) Close() {
	if s.done {
		return
	}
	s.done = true
	s.cn.broken = true
	s.c.put(s.cn)
}
