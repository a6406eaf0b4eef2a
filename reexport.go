package ode

import (
	"time"

	"ode/internal/core"
	"ode/internal/object"
	"ode/internal/query"
	"ode/internal/trigger"
	"ode/internal/txn"
	"ode/internal/version"
)

// The public API re-exports the data-model, transaction, and query
// types under the single ode namespace, so applications import one
// package. Aliases are zero-cost: the facade types are identical to
// the internal ones.

// Data model (internal/core).
type (
	// Value is a dynamically typed O++ value.
	Value = core.Value
	// Kind enumerates value kinds.
	Kind = core.Kind
	// OID identifies a persistent object.
	OID = core.OID
	// VRef pins a specific version of a persistent object.
	VRef = core.VRef
	// Type is a declared field/parameter type.
	Type = core.Type
	// Class is a runtime class descriptor.
	Class = core.Class
	// ClassBuilder assembles class declarations.
	ClassBuilder = core.ClassBuilder
	// Schema is the class catalog.
	Schema = core.Schema
	// Object is an instance (volatile, or the image of a persistent
	// object).
	Object = core.Object
	// Set is the container behind set values.
	Set = core.Set
	// Array is the container behind array values.
	Array = core.Array
	// Field is a data member declaration.
	FieldDecl = core.Field
	// Param is a method/trigger parameter declaration.
	Param = core.Param
	// Method is a member function declaration.
	Method = core.Method
	// Constraint is a class constraint declaration.
	Constraint = core.Constraint
	// TriggerDef is a trigger declaration.
	TriggerDef = core.TriggerDef
	// Store is the runtime context for methods/constraints/triggers.
	Store = core.Store
	// MethodFunc implements a member function.
	MethodFunc = core.MethodFunc
	// ConstraintFunc evaluates a constraint.
	ConstraintFunc = core.ConstraintFunc
	// TriggerCond evaluates a trigger condition.
	TriggerCond = core.TriggerCond
	// TriggerAction runs a fired trigger's action.
	TriggerAction = core.TriggerAction
	// Visibility is member access control.
	Visibility = core.Visibility
)

// Transactions (internal/txn).
type (
	// Tx is a transaction; it implements Store.
	Tx = txn.Tx
	// LockMode is shared or exclusive.
	LockMode = txn.LockMode
)

// Query constructs (internal/query).
type (
	// Item is a forall loop binding.
	Item = query.Item
	// Query is a forall loop under construction.
	Query = query.Query
	// Join is a two-variable forall loop.
	JoinQuery = query.Join
	// Pred is a suchthat predicate.
	Pred = query.Pred
	// JoinStrategy selects the join algorithm.
	JoinStrategy = query.JoinStrategy
	// Worklist is the fixpoint iterator for recursive queries.
	Worklist = query.Worklist
	// SuccFunc produces successors for transitive closures.
	SuccFunc = query.SuccFunc
	// Plan is the access path a forall query would use (EXPLAIN).
	Plan = query.Plan
	// JoinPlan is the physical strategy a join would use (EXPLAIN).
	JoinPlan = query.JoinPlan
)

// Explain computes the access path q would use, without running it:
// index selection against the current schema, the rendered suchthat
// filter, and any ordering clause. Shorthand for q.Explain(); the
// ode-sh `explain` statement and ode-inspect render the same plans.
func Explain(q *Query) Plan { return q.Explain() }

// ExplainJoin computes the physical strategy j would use, without
// running it. Shorthand for j.Explain().
func ExplainJoin(j *JoinQuery) JoinPlan { return j.Explain() }

// Triggers (internal/trigger).
type (
	// TriggerService manages activations and fired actions.
	TriggerService = trigger.Service
	// ActionError records a failed trigger-action transaction.
	ActionError = trigger.ActionError
)

// Tree versioning (internal/version).
type (
	// VersionService manages branching version graphs.
	VersionService = version.Service
)

// Value kinds.
const (
	KNull   = core.KNull
	KInt    = core.KInt
	KFloat  = core.KFloat
	KBool   = core.KBool
	KChar   = core.KChar
	KString = core.KString
	KOID    = core.KOID
	KVRef   = core.KVRef
	KSet    = core.KSet
	KArray  = core.KArray
)

// Visibilities.
const (
	Public  = core.Public
	Private = core.Private
)

// Lock modes.
const (
	Shared    = txn.Shared
	Exclusive = txn.Exclusive
)

// Join strategies.
const (
	Auto            = query.Auto
	NestedLoop      = query.NestedLoop
	IndexNestedLoop = query.IndexNestedLoop
	HashJoin        = query.HashJoin
)

// NilOID is the null object reference.
const NilOID = core.NilOID

// Predeclared types.
var (
	TInt    = core.TInt
	TFloat  = core.TFloat
	TBool   = core.TBool
	TChar   = core.TChar
	TString = core.TString
	TAnyRef = core.TAnyRef
)

// Null is the null value.
var Null = core.Null

// Value constructors.
var (
	Int        = core.Int
	Float      = core.Float
	Bool       = core.Bool
	Char       = core.Char
	Str        = core.Str
	Ref        = core.Ref
	VersionRef = core.VersionRef
	SetOf      = core.SetOf
	ArrayOf    = core.ArrayOf
	NewSet     = core.NewSet
	NewArray   = core.NewArray
)

// Type constructors.
var (
	RefTo       = core.RefTo
	VRefTo      = core.VRefTo
	SetOfType   = core.SetOfType
	ArrayOfType = core.ArrayOfType
)

// Schema and object construction.
var (
	NewSchema = core.NewSchema
	NewClass  = core.NewClass
	NewObject = core.NewObject
)

// Query construction.
var (
	// Forall starts `forall x in C` within a transaction.
	Forall = query.Forall
	// Field starts an (indexable) field predicate.
	Field = query.Field
	// And, Or, Not, Fn, Is combine predicates.
	And = query.And
	Or  = query.Or
	Not = query.Not
	Fn  = query.Fn
	Is  = query.Is
	// ForallValues iterates a set value.
	ForallValues = query.ForallValues
	// NewWorklist seeds a fixpoint worklist.
	NewWorklist = query.NewWorklist
	// TransitiveClosure and baselines for recursive queries.
	TransitiveClosure          = query.TransitiveClosure
	NaiveTransitiveClosure     = query.NaiveTransitiveClosure
	SemiNaiveTransitiveClosure = query.SemiNaiveTransitiveClosure
	// ReachableOIDs expands object-reference graphs.
	ReachableOIDs = query.ReachableOIDs
)

// Errors a caller is expected to test for.
var (
	// ErrNoObject: a dereferenced OID names no live object.
	ErrNoObject = object.ErrNoObject
	// ErrNoVersion: a version reference names no frozen version.
	ErrNoVersion = object.ErrNoVersion
	// ErrNoCluster: pnew before the class's cluster was created.
	ErrNoCluster = object.ErrNoCluster
	// ErrConstraintViolation: commit aborted by a class constraint.
	ErrConstraintViolation = txn.ErrConstraintViolation
	// ErrDeadlock: the transaction lost a deadlock and must be rerun.
	ErrDeadlock = txn.ErrDeadlock
	// ErrTxDone: an operation on a finished transaction.
	ErrTxDone = txn.ErrTxDone
	// ErrTxTimeout: the transaction's context deadline expired (at a
	// lock wait, scan boundary, or commit); retryable with time left.
	ErrTxTimeout = txn.ErrTxTimeout
	// ErrCanceled: the transaction's context was canceled.
	ErrCanceled = txn.ErrCanceled
	// ErrOverloaded: admission control rejected the transaction
	// (MaxConcurrentTx slots and the wait queue are full).
	ErrOverloaded = txn.ErrOverloaded
	// ErrDBClosed: the database is closing or closed.
	ErrDBClosed = txn.ErrDBClosed
	// ErrReadOnly: a write against a read-only replica; send writes to
	// the primary (or promote this node).
	ErrReadOnly = txn.ErrReadOnly
	// ErrStaleEpoch: the node was deposed by a newer promotion
	// (replication epoch fencing); retryable — a failover-aware router
	// re-discovers the current primary on the rerun.
	ErrStaleEpoch = txn.ErrStaleEpoch
	// ErrFailover: the operation was lost to a replication failover in
	// progress (primary unreachable or role moved mid-flight);
	// retryable once the router re-routes.
	ErrFailover = txn.ErrFailover
	// ErrNoPrepared rejects a two-phase-commit decision for a gid with
	// no prepared state and no recorded commit decision on this node.
	ErrNoPrepared = txn.ErrNoPrepared
	// ErrUnknownOutcome: a write (or a two-phase commit decision)
	// reached the WAL before its apply or fsync failed; whether it
	// counts is known only once the database is reopened.
	ErrUnknownOutcome = txn.ErrUnknownOutcome
	// ErrSchemaMismatch: the registered schema does not match the file.
	ErrSchemaMismatch = object.ErrSchemaMismatch
	// ErrNoTrigger: activation of an undeclared trigger.
	ErrNoTrigger = trigger.ErrNoTrigger
)

// IsRetryable reports whether err names a transient conflict an
// abort-and-rerun loop should retry (deadlock victims, deadline
// expiries, replication-failover casualties) as opposed to a
// deterministic or governance failure (constraint violations,
// cancellation, overload, closed database). RunTx applies this
// taxonomy internally.
func IsRetryable(err error) bool { return txn.IsRetryable(err) }

// timeNow is indirected for tests of timed triggers.
var timeNow = time.Now
