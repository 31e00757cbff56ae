(** JSON decoders, inverse to {!Encode} for the type-system fragment.

    An embedding front end sends user interactions back to the plugin
    referencing predicates and types by their serialized form; these
    decoders let round-trips be tested end to end. *)

open Trait_lang

type error = { path : string; message : string }

exception Decode_error of error

let fail path message = raise (Decode_error { path; message })

let field path key j =
  match Json.member key j with
  | Some v -> v
  | None -> fail path (Printf.sprintf "missing field %S" key)

let str path = function
  | Json.String s -> s
  | _ -> fail path "expected a string"

let int_ path = function Json.Int i -> i | _ -> fail path "expected an integer"

let list_ path = function Json.List xs -> xs | _ -> fail path "expected a list"

let path_ p j : Path.t =
  let crate =
    match str (p ^ ".crate") (field p "crate" j) with
    | "local" -> Path.Local
    | c -> Path.External c
  in
  let segments = List.map (str (p ^ ".segments[]")) (list_ p (field p "segments" j)) in
  Path.v ~crate segments

let region p j : Region.t =
  match str p j with
  | "'static" -> Region.Static
  | "'_" -> Region.Erased
  | s when String.length s > 2 && s.[0] = '\'' && s.[1] = '?' ->
      Region.Infer (int_of_string (String.sub s 2 (String.length s - 2)))
  | s when String.length s > 1 && s.[0] = '\'' ->
      Region.Named (String.sub s 1 (String.length s - 1))
  | s -> fail p ("malformed region " ^ s)

let rec ty p j : Ty.t =
  let kind = str (p ^ ".kind") (field p "kind" j) in
  match kind with
  | "unit" -> Ty.Unit
  | "bool" -> Ty.Bool
  | "i32" -> Ty.Int
  | "usize" -> Ty.Uint
  | "f64" -> Ty.Float
  | "string" -> Ty.Str
  | "param" -> Ty.Param (str (p ^ ".name") (field p "name" j))
  | "infer" -> Ty.Infer (int_ (p ^ ".id") (field p "id" j))
  | "ref" -> Ty.Ref (region (p ^ ".region") (field p "region" j), ty (p ^ ".ty") (field p "ty" j))
  | "ref_mut" ->
      Ty.RefMut (region (p ^ ".region") (field p "region" j), ty (p ^ ".ty") (field p "ty" j))
  | "adt" -> Ty.Ctor (path_ (p ^ ".path") (field p "path" j), args (p ^ ".args") (field p "args" j))
  | "tuple" ->
      Ty.Tuple (List.map (ty (p ^ ".elems[]")) (list_ p (field p "elems" j)))
  | "fn_ptr" ->
      Ty.FnPtr
        ( List.map (ty (p ^ ".inputs[]")) (list_ p (field p "inputs" j)),
          ty (p ^ ".output") (field p "output" j) )
  | "fn_item" ->
      Ty.FnItem
        ( path_ (p ^ ".path") (field p "path" j),
          List.map (ty (p ^ ".inputs[]")) (list_ p (field p "inputs" j)),
          ty (p ^ ".output") (field p "output" j) )
  | "dyn" -> Ty.Dynamic (trait_ref (p ^ ".trait") (field p "trait" j))
  | "projection" -> Ty.Proj (projection (p ^ ".proj") (field p "proj" j))
  | k -> fail p ("unknown type kind " ^ k)

and arg p j : Ty.arg =
  match Json.member "ty" j with
  | Some t -> Ty.Ty (ty (p ^ ".ty") t)
  | None -> (
      match Json.member "lifetime" j with
      | Some r -> Ty.Lifetime (region (p ^ ".lifetime") r)
      | None -> fail p "expected a type or lifetime argument")

and args p j : Ty.arg list = List.map (arg (p ^ "[]")) (list_ p j)

and trait_ref p j : Ty.trait_ref =
  {
    Ty.trait = path_ (p ^ ".trait") (field p "trait" j);
    args = args (p ^ ".args") (field p "args" j);
  }

and projection p j : Ty.projection =
  {
    Ty.self_ty = ty (p ^ ".self") (field p "self" j);
    proj_trait = trait_ref (p ^ ".trait") (field p "trait" j);
    assoc = str (p ^ ".assoc") (field p "assoc" j);
    assoc_args = args (p ^ ".assoc_args") (field p "assoc_args" j);
  }

let predicate p j : Predicate.t =
  let kind = str (p ^ ".kind") (field p "kind" j) in
  match kind with
  | "trait" ->
      Predicate.Trait
        {
          self_ty = ty (p ^ ".self") (field p "self" j);
          trait_ref = trait_ref (p ^ ".trait_ref") (field p "trait_ref" j);
        }
  | "projection" ->
      Predicate.Projection
        {
          projection = projection (p ^ ".proj") (field p "proj" j);
          term = ty (p ^ ".term") (field p "term" j);
        }
  | "type_outlives" ->
      Predicate.TypeOutlives
        (ty (p ^ ".ty") (field p "ty" j), region (p ^ ".region") (field p "region" j))
  | "region_outlives" ->
      Predicate.RegionOutlives
        (region (p ^ ".sub") (field p "sub" j), region (p ^ ".sup") (field p "sup" j))
  | "well_formed" -> Predicate.WellFormed (ty (p ^ ".ty") (field p "ty" j))
  | "object_safe" -> Predicate.ObjectSafe (path_ (p ^ ".trait") (field p "trait" j))
  | "const_evaluatable" ->
      Predicate.ConstEvaluatable (str (p ^ ".expr") (field p "expr" j))
  | "normalizes_to" ->
      Predicate.NormalizesTo
        (projection (p ^ ".proj") (field p "proj" j), int_ (p ^ ".into") (field p "into" j))
  | k -> fail p ("unknown predicate kind " ^ k)

let ty_of_json ?(path = "$") j = ty path j
let predicate_of_json ?(path = "$") j = predicate path j
let path_of_json ?(path = "$") j = path_ path j
let region_of_json ?(path = "$") j = region path j
let projection_of_json ?(path = "$") j = projection path j
