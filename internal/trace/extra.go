package trace

import (
	"io"

	"activedr/internal/timeutil"
)

// The paper's Table 2 lists activity types beyond job submissions and
// publications: shell logins, file accesses, and data-transfer
// operations on the operations side. Login and Transfer make those
// trackable first-class trace kinds; administrators can feed any
// subset into the activeness evaluator.

// Login is one shell-login record. Its activeness impact is a
// constant 1 per login (frequency is the signal).
type Login struct {
	User UserID
	TS   timeutil.Time
}

// TransferDir distinguishes ingest from retrieval.
type TransferDir int

const (
	// TransferIn moves data onto the scratch system.
	TransferIn TransferDir = iota
	// TransferOut moves data off it.
	TransferOut
)

// String names the direction.
func (d TransferDir) String() string {
	if d == TransferIn {
		return "in"
	}
	return "out"
}

// Transfer is one data-transfer-operation record (e.g. a Globus or
// hsi session). Its activeness impact is the moved gigabytes.
type Transfer struct {
	User  UserID
	TS    timeutil.Time
	Dir   TransferDir
	Bytes int64
}

// Impact returns the transfer's activeness impact in gigabytes.
func (t Transfer) Impact() float64 { return float64(t.Bytes) / 1e9 }

// Optional dataset files for the extra activity kinds.
const (
	LoginsFile    = "logins.tsv.gz"
	TransfersFile = "transfers.tsv.gz"
)

// writeLogins writes a login log as TSV: ts, user.
func writeLogins(w io.Writer, users []User, logins []Login) error {
	return writeRows(w, users, logins, loginSpec)
}

// writeTransfers writes a transfer log as TSV: ts, user, dir, bytes.
func writeTransfers(w io.Writer, users []User, xs []Transfer) error {
	return writeRows(w, users, xs, transferSpec)
}
