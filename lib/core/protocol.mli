(** Small-step protocol IR and explicit-state semantics.

    [Spec] declares a concurrent protocol as a fixed cast of roles
    (holder/swapper, waiters of various flavors, a monitor), a set of
    named shared words, and guarded atomic transition rules — each
    rule is one role reading/writing shared words, parking, unparking
    a peer, or finishing, all within a single atomic step (the real
    protocols make compound sections atomic with a host-side guard
    lock; a rule models one such guarded section). Crash transitions
    for crashable roles and a small abstract clock (for drain
    deadlines and [swap_grace_ns]-style age-out) are generated by the
    semantics, not declared per rule.

    [compile] checks the spec's names and produces an indexed form;
    [init]/[successors] give the explicit-state transition relation
    that [Analysis.Proto_check] explores. Everything here is pure and
    deterministic: successor order is declaration order, so state
    counts, counterexamples and JSON built from them are stable bytes
    on any host or [--domains] count. *)

module Spec : sig
  type flavor = Holder | Swapper | Spinning | Queued | Sleeping | Timed | Monitor
      (** Display/metadata flavor of a role; behavior comes solely
          from the rules that mention the role. *)

  type role = {
    r_name : string;
    r_flavor : flavor;
    r_crashable : bool;  (** may take a generated crash transition *)
    r_locals : (string * int) list;  (** private registers, initial values *)
  }

  (** Integer expressions, evaluated against the acting role. *)
  type expr =
    | K of int  (** constant *)
    | S of string  (** shared word *)
    | L of string  (** acting role's local register *)
    | Me  (** acting role's id, 1-based *)
    | Clock  (** abstract clock, [0 .. p_clock_max] *)
    | Status of string  (** named role's status code: 0 running, 1 parked, 2 crashed, 3 done *)
    | Add of expr * expr
    | Sub of expr * expr

  type cmp = Eq | Ne | Lt | Le | Gt | Ge

  type guard =
    | T
    | C of cmp * expr * expr
    | All of guard list
    | Any of guard list
    | Not of guard

  (** Atomic actions, applied in order; later actions observe earlier
      writes within the same rule (sequential semantics inside one
      atomic step). *)
  type act =
    | Read of string * string  (** local := shared *)
    | Write of string * expr  (** shared := e *)
    | Set of string * expr  (** local := e *)
    | If of guard * act list * act list
    | Unpark of string
        (** wake the named role: a parked role resumes; a running role
            gets a sticky wake token consumed by its next park (the
            mailbox-flag idiom — wakeups are never lost) *)

  type rule = {
    u_role : string;
    u_from : int;  (** program counter this rule fires from *)
    u_label : string;
    u_guard : guard;
    u_acts : act list;
    u_to : int;  (** program counter after the step *)
    u_park : bool;  (** park after the acts (unless a sticky wake is pending) *)
    u_done : bool;  (** role terminates after the acts *)
    u_timeout : bool;  (** models a deadline/age-out edge (metadata) *)
  }

  val rule :
    role:string ->
    from_:int ->
    ?park:bool ->
    ?done_:bool ->
    ?timeout:bool ->
    ?guard:guard ->
    ?acts:act list ->
    label:string ->
    int ->
    rule
  (** [rule ~role ~from_ ~label to_] with optional guard/acts/flags. *)

  val cas : string -> expect:expr -> set:expr -> guard * act
  (** Compare-and-swap on a shared word, as a guard/act pair to embed
      in a rule (the failing branch is simply the rule not firing). *)

  type t = {
    p_name : string;
    p_shared : (string * int) list;  (** shared words, initial values *)
    p_roles : role list;
    p_rules : rule list;
    p_crash_budget : int;  (** total crash transitions allowed in a run *)
    p_clock_max : int;  (** abstract clock ticks from 0 to this bound *)
  }
end

type t
(** A compiled protocol. *)

exception Ill_formed of string

val compile : Spec.t -> t
(** Resolve every name and index the rules. @raise Ill_formed on an
    unknown role/word/register, duplicate names, or an empty cast. *)

val name : t -> string
val spec : t -> Spec.t
val role_names : t -> string list

(** {1 States} *)

type state
(** One reachable configuration: shared words, every role's program
    counter, locals, status and wake token, the clock and the crash
    count. *)

type status = Running | Parked | Crashed | Done

val init : t -> state

val successors : t -> state -> (string * string * state) list
(** [(role, label, state')] for every enabled transition, in
    deterministic order: declared rules first, then generated
    ["crash"] transitions (role declaration order), then the clock
    ["tick"] (role [""]). A state with no successors is terminal. *)

val iter_successors : t -> state -> into:state -> (int -> unit) -> unit
(** [iter_successors t st ~into f] enumerates the same transitions as
    {!successors}, in the same order, without allocating: for each one
    it overwrites [into] (a {!scratch} state distinct from [st]) with
    the successor and calls [f] with the transition's index. [into] is
    only valid until [f] returns. *)

val transition : t -> int -> string * string
(** [(role, label)] of a transition index passed by {!iter_successors}. *)

val scratch : t -> state
(** A fresh state buffer of the model's size, for [~into]. *)

val key : t -> state -> string
(** Canonical bytes for hashing/equality of states: each word of the
    state as a zigzag varint (one byte for values in \[-64, 63\]). *)

val max_key_len : t -> int
(** Upper bound on [String.length (key t st)] for any state. *)

val write_key : t -> state -> bytes -> int
(** [write_key t st buf] writes [key t st] into the first bytes of
    [buf] (at least {!max_key_len} long) and returns its length. *)

val of_key : t -> string -> state
(** Inverse of {!key}: [key t (of_key t (key t st)) = key t st].
    @raise Invalid_argument unless [k] holds exactly one varint per
    word of a state of [t]. *)

(** {1 Accessors} (for properties and reports) *)

val shared : t -> state -> string -> int
val local : t -> state -> string -> string -> int
val pc : t -> state -> string -> int
val status : t -> state -> string -> status
val wake_pending : t -> state -> string -> bool
val clock : t -> state -> int
val crashes : t -> state -> int

val describe : t -> state -> string
(** One-line rendering of shared words and role positions, used in
    counterexample traces. *)

(** {1 Properties} *)

type property =
  | Safety of {
      q_name : string;
      q_desc : string;
      q_bad : t -> state -> string option;  (** [Some why] when the state is bad *)
    }
  | Step of {
      q_name : string;
      q_desc : string;
      q_bad : t -> role:string -> label:string -> state -> string option;
          (** judged on the pre-state of every transition *)
    }
  | Liveness of {
      q_name : string;
      q_desc : string;
      q_goal : t -> state -> bool;
          (** every reachable state must be able to reach a goal
              state; a reachable state from which no goal state is
              reachable is wedged *)
    }

val property_name : property -> string
val property_desc : property -> string
