//! The Social Network Platform of the S-CDN architecture (Fig. 1).
//!
//! Users register against the platform (optionally linked to a corpus
//! author), form groups representing collaborative projects, and obtain
//! bearer tokens that the social middleware validates. Relationships live
//! in the social graph the runtime is built from, not here.
//! This is an in-process simulation of "Facebook or a community tool such
//! as myExperiment" — only the surface the S-CDN consumes is modelled.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

use crate::author::AuthorId;

/// Dense platform user identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct UserId(pub u32);

impl UserId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense group identifier (a group ≈ a collaborative project).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GroupId(pub u32);

/// An opaque bearer token issued at login.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AuthToken(pub String);

/// A registered platform user.
#[derive(Clone, Debug)]
pub struct User {
    /// Identifier.
    pub id: UserId,
    /// Login name (unique).
    pub login: String,
    /// Display name.
    pub display_name: String,
    /// Corpus author this user corresponds to, if any.
    pub author: Option<AuthorId>,
    /// Declared research interests (free-form tags).
    pub interests: Vec<String>,
}

/// A user group (project, community).
#[derive(Clone, Debug)]
pub struct Group {
    /// Identifier.
    pub id: GroupId,
    /// Group name.
    pub name: String,
    /// The user who created the group (its administrator).
    pub owner: UserId,
    /// Members (includes the owner).
    pub members: HashSet<UserId>,
}

/// Errors from platform operations.
#[derive(Debug, PartialEq, Eq)]
pub enum PlatformError {
    /// The login name is already registered.
    DuplicateLogin(String),
    /// Unknown user id.
    UnknownUser(UserId),
    /// Unknown group id.
    UnknownGroup(GroupId),
    /// Login with wrong password.
    BadCredentials,
    /// Token is unknown or has been revoked.
    InvalidToken,
    /// Only the group owner can perform this action.
    NotGroupOwner,
}

impl std::fmt::Display for PlatformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlatformError::DuplicateLogin(l) => write!(f, "login {l:?} already registered"),
            PlatformError::UnknownUser(u) => write!(f, "unknown user {u:?}"),
            PlatformError::UnknownGroup(g) => write!(f, "unknown group {g:?}"),
            PlatformError::BadCredentials => write!(f, "bad credentials"),
            PlatformError::InvalidToken => write!(f, "invalid or revoked token"),
            PlatformError::NotGroupOwner => write!(f, "only the group owner may do this"),
        }
    }
}

impl std::error::Error for PlatformError {}

#[derive(Default)]
struct State {
    users: Vec<User>,
    login_index: HashMap<String, UserId>,
    /// First-registered user per linked corpus author.
    author_index: HashMap<AuthorId, UserId>,
    passwords: HashMap<UserId, String>,
    groups: Vec<Group>,
    tokens: HashMap<String, UserId>,
    token_counter: u64,
}

/// The social network platform: one state cell, mutated through `&self`
/// (callers share one platform by `Rc`).
#[derive(Default)]
pub struct SocialPlatform {
    state: RefCell<State>,
}

impl SocialPlatform {
    /// Create an empty platform.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a user. Login names must be unique.
    pub fn register(
        &self,
        login: &str,
        display_name: &str,
        password: &str,
        author: Option<AuthorId>,
    ) -> Result<UserId, PlatformError> {
        let mut s = self.state.borrow_mut();
        if s.login_index.contains_key(login) {
            return Err(PlatformError::DuplicateLogin(login.to_string()));
        }
        let id = UserId(s.users.len() as u32);
        s.users.push(User {
            id,
            login: login.to_string(),
            display_name: display_name.to_string(),
            author,
            interests: Vec::new(),
        });
        s.login_index.insert(login.to_string(), id);
        if let Some(a) = author {
            s.author_index.entry(a).or_insert(id);
        }
        s.passwords.insert(id, password.to_string());
        Ok(id)
    }

    /// Number of registered users.
    pub fn user_count(&self) -> usize {
        self.state.borrow().users.len()
    }

    /// Fetch a user record.
    pub fn user(&self, id: UserId) -> Result<User, PlatformError> {
        let s = self.state.borrow();
        s.users
            .get(id.index())
            .cloned()
            .ok_or(PlatformError::UnknownUser(id))
    }

    /// The user linked to a given corpus author, if any (the first
    /// registered, should several users claim one author).
    pub fn user_of_author(&self, a: AuthorId) -> Option<UserId> {
        self.state.borrow().author_index.get(&a).copied()
    }

    /// Add a declared research interest to a user profile.
    pub fn add_interest(&self, id: UserId, interest: &str) -> Result<(), PlatformError> {
        let mut s = self.state.borrow_mut();
        let user = s
            .users
            .get_mut(id.index())
            .ok_or(PlatformError::UnknownUser(id))?;
        if !user.interests.iter().any(|i| i == interest) {
            user.interests.push(interest.to_string());
        }
        Ok(())
    }

    /// Authenticate and obtain a bearer token.
    pub fn login(&self, login: &str, password: &str) -> Result<AuthToken, PlatformError> {
        let mut s = self.state.borrow_mut();
        let id = *s
            .login_index
            .get(login)
            .ok_or(PlatformError::BadCredentials)?;
        if s.passwords.get(&id).map(String::as_str) != Some(password) {
            return Err(PlatformError::BadCredentials);
        }
        s.token_counter += 1;
        // Token format: opaque but deterministic within a run (no wall
        // clock — the platform is simulation-friendly).
        let tok = format!("scdn-tok-{}-{:08x}", id.0, s.token_counter * 0x9e37_79b9);
        s.tokens.insert(tok.clone(), id);
        Ok(AuthToken(tok))
    }

    /// Resolve a token to the user it authenticates.
    pub fn validate_token(&self, token: &AuthToken) -> Result<UserId, PlatformError> {
        self.state
            .borrow()
            .tokens
            .get(&token.0)
            .copied()
            .ok_or(PlatformError::InvalidToken)
    }

    /// Revoke a token (logout).
    pub fn revoke_token(&self, token: &AuthToken) {
        self.state.borrow_mut().tokens.remove(&token.0);
    }

    /// Create a group owned by `owner`.
    pub fn create_group(&self, owner: UserId, name: &str) -> Result<GroupId, PlatformError> {
        let mut s = self.state.borrow_mut();
        if owner.index() >= s.users.len() {
            return Err(PlatformError::UnknownUser(owner));
        }
        let id = GroupId(s.groups.len() as u32);
        let mut members = HashSet::new();
        members.insert(owner);
        s.groups.push(Group {
            id,
            name: name.to_string(),
            owner,
            members,
        });
        Ok(id)
    }

    /// Add a member to a group (owner-only).
    pub fn add_to_group(
        &self,
        actor: UserId,
        group: GroupId,
        member: UserId,
    ) -> Result<(), PlatformError> {
        let mut s = self.state.borrow_mut();
        if member.index() >= s.users.len() {
            return Err(PlatformError::UnknownUser(member));
        }
        let g = s
            .groups
            .get_mut(group.0 as usize)
            .ok_or(PlatformError::UnknownGroup(group))?;
        if g.owner != actor {
            return Err(PlatformError::NotGroupOwner);
        }
        g.members.insert(member);
        Ok(())
    }

    /// `true` if `user` belongs to `group`.
    pub fn is_member(&self, group: GroupId, user: UserId) -> bool {
        self.state
            .borrow()
            .groups
            .get(group.0 as usize)
            .map(|g| g.members.contains(&user))
            .unwrap_or(false)
    }

    /// Fetch a group record.
    pub fn group(&self, id: GroupId) -> Result<Group, PlatformError> {
        self.state
            .borrow()
            .groups
            .get(id.0 as usize)
            .cloned()
            .ok_or(PlatformError::UnknownGroup(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform_with_two_users() -> (SocialPlatform, UserId, UserId) {
        let p = SocialPlatform::new();
        let a = p
            .register("alice", "Alice", "pw-a", None)
            .expect("register");
        let b = p
            .register("bob", "Bob", "pw-b", Some(AuthorId(7)))
            .expect("register");
        (p, a, b)
    }

    #[test]
    fn register_and_lookup() {
        let (p, a, b) = platform_with_two_users();
        assert_eq!(p.user_count(), 2);
        assert_eq!(p.user(a).map(|u| u.login).as_deref(), Ok("alice"));
        assert_eq!(p.user_of_author(AuthorId(7)), Some(b));
        assert_eq!(p.user_of_author(AuthorId(9)), None);
        // A second claim on the same author does not displace the first.
        p.register("bob2", "Bob II", "pw", Some(AuthorId(7)))
            .expect("register");
        assert_eq!(p.user_of_author(AuthorId(7)), Some(b));
    }

    #[test]
    fn duplicate_login_rejected() {
        let (p, _, _) = platform_with_two_users();
        assert_eq!(
            p.register("alice", "Other", "x", None).unwrap_err(),
            PlatformError::DuplicateLogin("alice".to_string())
        );
    }

    #[test]
    fn login_and_token_lifecycle() {
        let (p, a, _) = platform_with_two_users();
        assert_eq!(
            p.login("alice", "wrong").unwrap_err(),
            PlatformError::BadCredentials
        );
        let tok = p.login("alice", "pw-a").expect("login");
        assert_eq!(p.validate_token(&tok).expect("valid"), a);
        p.revoke_token(&tok);
        assert_eq!(
            p.validate_token(&tok).unwrap_err(),
            PlatformError::InvalidToken
        );
    }

    #[test]
    fn tokens_are_unique_per_login() {
        let (p, _, _) = platform_with_two_users();
        let t1 = p.login("alice", "pw-a").expect("login");
        let t2 = p.login("alice", "pw-a").expect("login");
        assert_ne!(t1, t2);
        assert!(p.validate_token(&t1).is_ok());
        assert!(p.validate_token(&t2).is_ok());
    }

    #[test]
    fn groups_and_membership() {
        let (p, a, b) = platform_with_two_users();
        let g = p.create_group(a, "DTI multi-center trial").expect("create");
        assert!(p.is_member(g, a));
        assert!(!p.is_member(g, b));
        // Non-owner cannot add members.
        assert_eq!(
            p.add_to_group(b, g, b).unwrap_err(),
            PlatformError::NotGroupOwner
        );
        p.add_to_group(a, g, b).expect("owner adds");
        assert!(p.is_member(g, b));
        assert_eq!(p.group(g).expect("group").members.len(), 2);
    }

    #[test]
    fn interests_dedup() {
        let (p, a, _) = platform_with_two_users();
        p.add_interest(a, "MRI").expect("ok");
        p.add_interest(a, "MRI").expect("ok");
        assert_eq!(p.user(a).expect("user").interests, vec!["MRI".to_string()]);
    }
}
