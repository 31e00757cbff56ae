(** JSON decoders, inverse to {!Encode} for the type-system fragment, so
    front-end round trips are testable end to end. *)

open Trait_lang

type error = { path : string; message : string }

exception Decode_error of error

(** [path] is the JSON path of the value itself (default [$]); an error
    inside it reports the path of the offending field below it.
    @raise Decode_error with a JSON-path-qualified message. *)
val ty_of_json : ?path:string -> Json.t -> Ty.t

val predicate_of_json : ?path:string -> Json.t -> Predicate.t
val path_of_json : ?path:string -> Json.t -> Path.t
val region_of_json : ?path:string -> Json.t -> Region.t
val projection_of_json : ?path:string -> Json.t -> Ty.projection
